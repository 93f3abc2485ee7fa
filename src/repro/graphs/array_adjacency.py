"""The graph substrate of the discovery processes: NumPy rows plus packed bits.

:class:`ArrayGraph` and :class:`ArrayDiGraph` store the neighbour lists
in one preallocated 2-D ``int32`` array (one row per node, amortized
column doubling) plus a word-packed membership matrix.  Per-round work
is then whole-array operations:

* ``sample_neighbors(nodes, u)`` — one neighbour per node for uniforms
  the caller already drew, gathered by flat index from the row block;
  ``random_neighbors(nodes, rng)`` is the same with its own
  ``rng.random(m)`` draw;
* ``add_edges_batch_arrays(us, vs)`` — one packed membership test over
  every proposal, then duplicate/self-loop rejection with
  first-occurrence order preserved and O(1) slot writes for the (few)
  genuinely new edges, which come back as :class:`EdgeArrays`.  A large
  batch is inserted one chunk at a time, in order, so no temporary of
  the insert holds more than :data:`CHUNK` entries.

A *stacked* graph (:meth:`ArrayGraph.stacked`) is the disjoint union of
up to :func:`stack_width` blocks of ``n`` nodes, each loaded from one
trial's graph with :meth:`~ArrayGraph.load_block`; block ``s`` holds
that graph with its node IDs offset by ``s · n``.  It is an ordinary
graph, so every kernel and the batched insert run on it unchanged, and
since blocks share no row, each block evolves exactly as its graph would
on its own.

The paper's processes only ever add edges among a fixed set of ``n``
nodes, and the rows are append-only.  :meth:`ArrayDiGraph.remove_edge`
serves the network engine's liveness eviction.

Packed memory model
-------------------
Membership lives in ``uint64`` bitset rows (:mod:`repro.graphs.bitset`):
bit ``v`` of row ``u`` is the edge ``(u, v)``, so the matrix costs
``n² / 8`` bytes, and batch membership tests, completeness predicates
and the closure/reachability kernels all run word-parallel (64 pairs per
machine-word operation).  ``adjacency_bits()`` exposes the packed rows
directly (read-only) so :mod:`repro.graphs.closure` and
:mod:`repro.graphs.properties` run their kernels with zero conversion
cost.  A graph whose membership rows and first neighbour block exceed
the memory the OS reports available is refused with a ``MemoryError``
before anything is allocated, and :func:`refuse_oversized_run` refuses a
run whose rows cannot grow to the complete graph's.

Neighbour rows hold ``int32`` node IDs, half the bytes of ``int64``; a
scalar read from a row is an ``np.int32``.  Every flat index (node ·
capacity + slot) and every sort key (node · n + node) is computed in
``int64`` whatever the dtype of its inputs, so no product of a node ID
with a capacity or with ``n`` can wrap around.

Draw convention
---------------
Every sampled node costs one uniform float, turned into a neighbour
index by :func:`repro.graphs.sampling.uniform_indices`.  The gossip
kernels draw a round's uniforms as one block and hand each row to
:meth:`ArrayGraph.sample_neighbors`; that consumes the same stream as
one ``rng.random(m)`` per sampling stage.  Neighbour rows keep insertion
order, and a batched insert appends exactly where sequential
:meth:`~ArrayGraph.add_edge` calls would, so a run's trace does not
depend on how its edges were inserted.  ``tests/test_backend_equivalence.py``
pins both against a list-of-lists oracle that samples stage by stage.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graphs import bitset
from repro.graphs.sampling import masked_counts, uniform_indices

__all__ = ["ArrayGraph", "ArrayDiGraph", "EdgeArrays", "refuse_oversized_run", "stack_width"]

_MIN_CAPACITY = 4

#: dtype of the neighbour rows (node IDs below 2³¹), and its bytes a slot.
ROW_DTYPE = np.int32
_ROW_BYTES = np.dtype(ROW_DTYPE).itemsize

#: entries per chunk: the batched insert and the payload baselines' round
#: expansion work through their candidates at most this many at a time,
#: so a round's temporaries stay a fixed size however large its payloads.
CHUNK = 1 << 18

#: ``int64`` arrays of :data:`CHUNK` entries that a round's chunk can hold
#: at once, counted generously: the insert's own temporaries (keys, sort
#: positions and slots; about seven) plus the payload arrays held across it.
CHUNK_TEMPORARIES = 12


def _round_up_pow2(value: int) -> int:
    """Smallest power of two >= max(value, _MIN_CAPACITY)."""
    cap = _MIN_CAPACITY
    while cap < value:
        cap *= 2
    return cap


def _available_memory() -> Optional[int]:
    """Bytes the OS reports available (``MemAvailable``), or None where unknown."""
    try:
        with open("/proc/meminfo") as meminfo:
            for line in meminfo:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError):
        return None
    return None


#: graphs needing fewer bytes skip the memory probe: reading ``/proc/meminfo``
#: costs more than allocating them, and every ``copy()`` constructs a graph.
_PROBE_BYTES = 1 << 20


def _refuse_oversized(n: int) -> None:
    """Raise ``MemoryError`` before allocating a graph that cannot fit in memory.

    Counts the packed membership rows (``n · ⌈n/64⌉`` words of eight bytes)
    and the first neighbour block (``n · 4`` slots of four bytes), and asks
    the OS only from :data:`_PROBE_BYTES` on.
    """
    nbytes = 8 * n * bitset.words_for(n) + _ROW_BYTES * n * _MIN_CAPACITY
    if nbytes < _PROBE_BYTES:
        return
    available = _available_memory()
    if available is not None and nbytes > available:
        raise MemoryError(
            f"a graph on n={n} nodes needs {nbytes} bytes of membership rows and "
            f"neighbour block, but only {available} bytes are available"
        )


def refuse_oversized_run(graph: Union["ArrayGraph", "ArrayDiGraph"]) -> None:
    """Raise ``MemoryError`` before a run whose rows cannot grow to the end in memory.

    A discovery run ends at the complete graph (or inside it), whose rows
    are ``n · _round_up_pow2(n − 1)`` slots.  The bytes the run still has
    to allocate are those final rows, the half-width block that stays
    alive while the last doubling copies it (both only if the rows are
    narrower now), and the chunk scratch of a round: at most
    :data:`CHUNK_TEMPORARIES` ``int64`` arrays of ``min(CHUNK, n²)``
    entries.  Like the construction check it asks the OS only from
    :data:`_PROBE_BYTES` on, and it touches neither the graph nor any
    generator.
    """
    n = graph.n
    final_cap = _round_up_pow2(n - 1)
    nbytes = CHUNK_TEMPORARIES * 8 * min(CHUNK, n * n)
    if graph.capacity < final_cap:
        nbytes += _ROW_BYTES * n * (final_cap + final_cap // 2)
    if nbytes < _PROBE_BYTES:
        return
    available = _available_memory()
    if available is not None and nbytes > available:
        raise MemoryError(
            f"a run on n={n} nodes needs {nbytes} bytes for its neighbour rows to grow "
            f"to capacity {final_cap} and for its round scratch, but only {available} "
            "bytes are available"
        )


def stack_width(n: int) -> int:
    """How many blocks of ``n`` nodes one :meth:`ArrayGraph.stacked` union may hold.

    The budget is the bytes of one :data:`CHUNK` of row entries (1 MiB of
    ``int32``).  The union's rows, allocated at the complete ``n``-node
    graph's width ``_round_up_pow2(n − 1)``, must fit in it, and so must
    its membership matrix over all ``blocks · n`` nodes.  ``CHUNK`` is
    read at call time, so shrinking it shrinks the stack.
    """
    budget = _ROW_BYTES * CHUNK
    nodes = math.isqrt(8 * budget)
    while 8 * nodes * bitset.words_for(nodes) > budget:
        nodes -= 1
    return min(budget // (_ROW_BYTES * n * _round_up_pow2(n - 1)), nodes // n)


def _block_offset(union: Union["ArrayGraph", "ArrayDiGraph"], s: int, n: int) -> int:
    """First node of block ``s`` of ``n`` nodes; ``IndexError`` if it does not fit in ``union``."""
    if s < 0 or (s + 1) * n > union.n:
        raise IndexError(f"block {s} of {n} nodes lies outside a graph of {union.n} nodes")
    return s * n


def _load_rows(
    rows: np.ndarray,
    deg: np.ndarray,
    bits: np.ndarray,
    offset: int,
    src_rows: np.ndarray,
    src_deg: np.ndarray,
) -> None:
    """Overwrite the block of rows from ``offset`` with ``src_rows``, IDs shifted by ``offset``.

    The block's rows, degrees and membership bits are cleared first, so
    nothing of what it held before survives.  Its bits are set from the
    copied entries; no other block shares its rows.
    """
    block = slice(offset, offset + src_deg.shape[0])
    width = int(src_deg.max()) if src_deg.size else 0
    src = src_rows[:, :width]
    present = src >= 0
    rows[block] = -1
    np.add(src, offset, out=rows[block, :width], where=present)
    deg[block] = src_deg
    bits[block] = 0
    bitset.set_bits(bits, present.nonzero()[0] + offset, src[present] + offset)


class EdgeArrays:
    """A batch of edges as two integer endpoint arrays, in order.

    What :meth:`ArrayGraph.add_edges_batch_arrays` returns, so a round's
    new edges stay in array form through the engine's bookkeeping.  It
    stands in for the list of ``(u, v)`` tuples it holds: ``len`` and
    iteration work, and :meth:`tolist` builds the tuples.
    """

    __slots__ = ("us", "vs")

    def __init__(self, us: np.ndarray, vs: np.ndarray) -> None:
        self.us = us
        self.vs = vs

    @classmethod
    def of(cls, edges: Union["EdgeArrays", Sequence[Tuple[int, int]]]) -> "EdgeArrays":
        """``edges`` as endpoint arrays (returned as is when it already is one)."""
        if isinstance(edges, cls):
            return edges
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        return cls(arr[:, 0], arr[:, 1])

    def tolist(self) -> List[Tuple[int, int]]:
        """The edges as ``(u, v)`` tuples of Python ints."""
        return list(zip(self.us.tolist(), self.vs.tolist()))

    def __len__(self) -> int:
        return self.us.shape[0]

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return zip(self.us.tolist(), self.vs.tolist())

    @classmethod
    def concat(cls, parts: Sequence["EdgeArrays"]) -> "EdgeArrays":
        """The batches ``parts`` one after another (an empty batch when there are none)."""
        if len(parts) == 1:
            return parts[0]
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            return cls(empty, empty)
        return cls(np.concatenate([p.us for p in parts]), np.concatenate([p.vs for p in parts]))


def _endpoints(edges: Sequence[Tuple[int, int]], n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``edges`` as two ``int64`` endpoint arrays; ``IndexError`` if one is outside ``[0, n)``."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise IndexError(f"edge endpoint out of range [0, {n})")
    return arr[:, 0], arr[:, 1]


def _sample_rows(rows: np.ndarray, deg: np.ndarray, nodes: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``rows[nodes[i], idx_i]`` with ``idx_i`` from ``u[i]`` and the degree; ``-1`` if none.

    The sampling core of both array graphs.  Indices come from
    :func:`repro.graphs.sampling.uniform_indices`, and the gather is one
    ``take`` at ``node · capacity + idx`` into the row block, computed in
    ``int64`` (``nodes`` may be ``int32`` IDs read from the rows).  A
    ``-1`` node (a dead end handed on by an earlier hop) or a node of
    degree 0 yields ``-1``; only a batch that holds one pays for the
    masking.
    """
    if nodes.size and nodes.min() < 0:
        nodes, counts = masked_counts(nodes, deg)
    else:
        counts = deg.take(nodes)
    idx = uniform_indices(u, counts)
    out = rows.take(np.multiply(nodes, rows.shape[1], dtype=np.int64) + idx)
    if idx.size and counts.min() == 0:
        out[idx < 0] = -1
    return out


def _stable_sort(keys: np.ndarray, bound: int) -> Tuple[np.ndarray, np.ndarray]:
    """``keys`` in ascending order, and the batch position each came from.

    Equal keys keep their batch order, as a stable argsort would give, but
    the sort is one ``np.sort`` of the composite keys ``key · 2^b +
    position`` (``k`` keys, each in ``[0, bound)``; ``2^b > k``), which a
    shift and a mask decode.  A stable argsort of 4M ``int64`` keys costs
    about ten times as much.  The composite keys must fit in ``int64``:
    a batch where ``bound · 2^b`` exceeds ``2^63`` is refused rather than
    wrapped around.
    """
    k = keys.shape[0]
    shift = k.bit_length()
    if bound << shift > 1 << 63:
        raise OverflowError(
            f"a batch of {k} keys below {bound} overflows the int64 composite sort keys"
        )
    composite = np.left_shift(keys, shift, dtype=np.int64)
    composite |= np.arange(k, dtype=np.int64)
    composite.sort()
    pos = composite & ((1 << shift) - 1)
    composite >>= shift
    return composite, pos


def _new_edges(
    bits: np.ndarray, n: int, us: np.ndarray, vs: np.ndarray, directed: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """The proposals ``(us[i], vs[i])`` that are genuinely new edges, in order.

    The packed membership test runs once over every proposal.  An
    undirected graph's bit rows are symmetric, so ``bits[us, vs]`` needs
    no ``(min, max)`` orientation.  The within-batch dedupe (first
    occurrence wins) and the self-loop filter then run only on the
    survivors, which late in a run are few; a self loop is never present,
    so it always survives the test.  The dedupe sorts the edge keys with
    :func:`_stable_sort` and drops every entry that is not the first of
    its run: a later occurrence of an edge earlier in the batch.  The
    keys ``lo · n + hi`` are ``int64`` whatever the endpoints' dtype.
    """
    cand = (~bitset.get_bits(bits, us, vs)).nonzero()[0]
    add_u, add_v = us[cand], vs[cand]
    if cand.size > 1:
        if directed:
            keys = np.multiply(add_u, n, dtype=np.int64)
            keys += add_v
        else:
            keys = np.multiply(np.minimum(add_u, add_v), n, dtype=np.int64)
            keys += np.maximum(add_u, add_v)
        keys, pos = _stable_sort(keys, n * n)
        repeated = keys[1:] == keys[:-1]
        if repeated.any():
            first = np.ones(cand.size, dtype=bool)
            first[pos[1:][repeated]] = False
            add_u, add_v = add_u[first], add_v[first]
    keep = add_u != add_v
    if not keep.all():
        add_u, add_v = add_u[keep], add_v[keep]
    return add_u, add_v


def _append_slots(deg: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Row slot of every appended entry: ``deg[end]`` plus the entries for that row before it.

    Grouped slot assignment: entries bound for the same row take
    consecutive slots in batch order, which is exactly where appending
    them one at a time would put them.  In :func:`_stable_sort` order a
    row's entries form one run, which starts where the rows below it
    end: at the exclusive prefix sum of the per-row counts.  An entry's
    rank in its run is its sorted position minus that start, so one
    ``bincount`` and one ``cumsum`` rank the whole batch in linear time.
    The same counts then advance ``deg`` in place, so the caller's
    degrees already include the batch.  The slots are ``int64``, ready
    for the flat index ``end · capacity + slot``.
    """
    sorted_ends, order = _stable_sort(ends, deg.shape[0])
    counts = np.bincount(sorted_ends, minlength=deg.shape[0])
    offset = deg - np.cumsum(counts)
    offset += counts  # deg[row] minus the sorted position of the row's first entry
    rank = np.arange(ends.shape[0], dtype=np.int64)
    rank += offset[sorted_ends]
    deg += counts
    slots = np.empty_like(rank)
    slots[order] = rank
    return slots


def _insert_in_chunks(
    insert: Callable[[np.ndarray, np.ndarray], EdgeArrays],
    us: np.ndarray,
    vs: np.ndarray,
    size: int,
) -> EdgeArrays:
    """``insert`` over ``(us, vs)`` at most ``size`` proposals at a time, in order.

    Each chunk's insert sees the edges an earlier chunk added as present,
    so the first occurrence of every new edge still wins and the rows
    receive the entries in the order one pass over the whole batch would
    give them.  ``insert`` is a graph's private single-pass insert, never
    the public method, which is entered once per batch.
    """
    k = us.shape[0]
    if k <= size:
        return insert(us, vs)
    return EdgeArrays.concat(
        [insert(us[i : i + size], vs[i : i + size]) for i in range(0, k, size)]
    )


class ArrayGraph:
    """Undirected simple graph with preallocated NumPy neighbour storage.

    Parameters
    ----------
    n:
        Number of nodes (``0 .. n-1``).
    edges:
        Optional initial edges, inserted as one batch in which the first
        occurrence wins; duplicates and self loops are ignored.

    Notes
    -----
    Neighbour rows keep insertion order; :meth:`neighbors` returns a live
    array slice that callers must not mutate.
    """

    __slots__ = ("_n", "_nbr", "_deg", "_bits", "_num_edges", "_cap")

    #: dispatch flag: undirected graphs expose degree()/neighbors().
    directed = False

    def __init__(self, n: int, edges: Optional[Iterable[Tuple[int, int]]] = None) -> None:
        if n < 0:
            raise ValueError(f"number of nodes must be non-negative, got {n}")
        self._n = int(n)
        _refuse_oversized(self._n)
        self._cap = _MIN_CAPACITY
        self._nbr = np.full((self._n, self._cap), -1, dtype=ROW_DTYPE)
        self._deg = np.zeros(self._n, dtype=np.int64)
        self._bits = bitset.zeros(self._n, self._n)
        self._num_edges = 0
        if edges is not None:
            self.add_edges_batch_arrays(*_endpoints(list(edges), self._n))

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def capacity(self) -> int:
        """Current neighbour-row capacity (grows by doubling)."""
        return self._cap

    def number_of_nodes(self) -> int:
        """Number of nodes (alias of :attr:`n`)."""
        return self._n

    def number_of_edges(self) -> int:
        """Number of distinct undirected edges currently present."""
        return self._num_edges

    def nodes(self) -> range:
        """Iterate over node identifiers ``0 .. n-1``."""
        return range(self._n)

    def degree(self, u: int) -> int:
        """Degree of node ``u``."""
        self._check_node(u)
        return int(self._deg[u])

    def degrees(self) -> np.ndarray:
        """Return a copy of the degree vector as an ``int64`` numpy array."""
        return self._deg.copy()

    def min_degree(self) -> int:
        """Minimum degree over all nodes (0 for an empty graph with nodes)."""
        if self._n == 0:
            return 0
        return int(self._deg.min())

    def max_degree(self) -> int:
        """Maximum degree over all nodes (0 for an empty graph with nodes)."""
        if self._n == 0:
            return 0
        return int(self._deg.max())

    def neighbors(self, u: int) -> np.ndarray:
        """Neighbour row of ``u`` in insertion order (live view; do not mutate)."""
        self._check_node(u)
        return self._nbr[u, : self._deg[u]]

    def neighbor_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """The padded neighbour-row block and the degree vector (live views).

        Row ``u`` holds ``neighbors(u)`` in insertion order in its first
        ``deg[u]`` slots (``-1`` padding beyond).  This is the whole-graph
        input of the baselines' vectorized payload expansion; callers must
        not mutate either array.
        """
        return self._nbr, self._deg

    def has_edge(self, u: int, v: int) -> bool:
        """Return True if the undirected edge ``(u, v)`` is present."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            return False
        return bitset.get_bit(self._bits, u, v)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over the edges as canonical ``(min, max)`` pairs."""
        us, vs = np.nonzero(np.triu(bitset.unpack_bool_matrix(self._bits, self._n)))
        return iter(zip(us.tolist(), vs.tolist()))

    def edge_list(self) -> List[Tuple[int, int]]:
        """Return a sorted list of canonical edges (useful for tests)."""
        return list(self.edges())

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add_edge(self, u: int, v: int) -> bool:
        """Add the undirected edge ``(u, v)``; True when genuinely new."""
        self._check_node(u)
        self._check_node(v)
        if u == v or bitset.get_bit(self._bits, u, v):
            return False
        self._ensure_capacity(int(max(self._deg[u], self._deg[v])) + 1)
        self._append(u, v)
        bitset.set_bit(self._bits, u, v)
        bitset.set_bit(self._bits, v, u)
        self._num_edges += 1
        return True

    def add_edges_from(self, edges: Iterable[Tuple[int, int]]) -> int:
        """Add many edges; return how many were actually new."""
        return len(self.add_edges_batch_arrays(*_endpoints(list(edges), self._n)))

    def add_edges_batch(self, edges: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """Vectorized batch insert; returns the new edges in first-occurrence order.

        Equivalent to calling :meth:`add_edge` on each edge in order: self
        loops and duplicates (within the batch or against the graph) are
        rejected, the first occurrence of each new edge wins, and the
        returned tuples keep the proposal's original orientation.
        """
        if len(edges) == 0:
            return []
        return self.add_edges_batch_arrays(*_endpoints(edges, self._n)).tolist()

    def add_edges_batch_arrays(self, us: np.ndarray, vs: np.ndarray) -> EdgeArrays:
        """Array form of :meth:`add_edges_batch`: same contract, no tuples.

        The hot path of the vectorized round engine: endpoints arrive as the
        arrays a propose kernel produced and the new edges leave as
        :class:`EdgeArrays`.  Already-present edges are filtered *before*
        the within-batch dedupe (the two commute), so late rounds — where
        almost every proposal already exists — skip the sort entirely.  A
        new edge writes two row entries, so a batch of more than
        ``CHUNK // 2`` proposals is inserted that many at a time
        (:func:`_insert_in_chunks`), with the same result.
        """
        return _insert_in_chunks(self._insert_chunk, us, vs, max(1, CHUNK // 2))

    def _insert_chunk(self, us: np.ndarray, vs: np.ndarray) -> EdgeArrays:
        """One pass of :meth:`add_edges_batch_arrays` over a batch of at most a chunk."""
        add_u, add_v = _new_edges(self._bits, self._n, us, vs, directed=False)
        if add_u.shape[0]:
            self._write_new_edges(add_u, add_v)
        return EdgeArrays(add_u, add_v)

    def _write_new_edges(self, add_u: np.ndarray, add_v: np.ndarray) -> None:
        """Append the mutual neighbour entries and membership bits of verified-new edges.

        Interleaving the endpoints (u-entry before v-entry, in batch order)
        makes :func:`_append_slots` reproduce the exact append order of
        sequential :meth:`add_edge` calls, and it advances the degrees.  The
        interleaved pairs hold both orientations, so one scatter sets both
        bits of every edge.
        """
        k = add_u.shape[0]
        ends = np.empty(2 * k, dtype=np.int64)
        ends[0::2] = add_u
        ends[1::2] = add_v
        slots = _append_slots(self._deg, ends)
        self._ensure_capacity(int(slots.max()) + 1)
        slots += ends * self._cap
        vals = np.empty(2 * k, dtype=ROW_DTYPE)
        vals[0::2] = add_v
        vals[1::2] = add_u
        self._nbr.put(slots, vals)
        bitset.set_bits(self._bits, ends, vals)
        self._num_edges += k

    def _append(self, u: int, v: int) -> None:
        """Write the mutual neighbour entries for a new edge (capacity ensured)."""
        deg = self._deg
        self._nbr[u, deg[u]] = v
        self._nbr[v, deg[v]] = u
        deg[u] += 1
        deg[v] += 1

    def _ensure_capacity(self, needed: int) -> None:
        if needed <= self._cap:
            return
        new_cap = _round_up_pow2(needed)
        grown = np.full((self._n, new_cap), -1, dtype=ROW_DTYPE)
        grown[:, : self._cap] = self._nbr
        self._nbr = grown
        self._cap = new_cap

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def random_neighbors(self, nodes: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        """Vectorized uniform neighbour sample for a whole batch of nodes.

        Consumes exactly ``rng.random(len(nodes))`` and turns it into
        neighbours with :meth:`sample_neighbors`; ``-1`` marks invalid
        entries.  The gossip kernels do not call this per stage: they draw
        a round's uniforms as one ``(2, m)`` block and pass its rows to
        :meth:`sample_neighbors`, which consumes the same stream.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        return self.sample_neighbors(nodes, rng.random(nodes.shape[0]))

    def sample_neighbors(self, nodes: np.ndarray, u: np.ndarray) -> np.ndarray:
        """One neighbour of every ``nodes[i]`` chosen by the drawn uniform ``u[i]``.

        The draw-free half of :meth:`random_neighbors`, for kernels that
        draw a whole round's uniforms as one block.  ``nodes`` is an
        ``int64`` array that broadcasts against ``u`` — a ``(2, m)`` block
        of uniforms samples two neighbours of each of ``m`` nodes.  A
        ``-1`` node or an isolated node yields ``-1``.
        """
        return _sample_rows(self._nbr, self._deg, nodes, u)

    def neighbors_at(self, nodes: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Gather ``neighbors(nodes[i])[idx[i]]`` per element (``-1`` passthrough)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        idx = np.asarray(idx, dtype=np.int64)
        valid = idx >= 0
        gathered = self._nbr[np.where(valid, nodes, 0), np.where(valid, idx, 0)]
        return np.where(valid, gathered, -1)

    def random_neighbor(self, u: int, rng: np.random.Generator) -> int:
        """Sample a uniformly random neighbour of ``u`` (scalar API parity)."""
        k = int(self._deg[u])
        if k == 0:
            raise ValueError(f"node {u} has no neighbors to sample from")
        return int(self._nbr[u, int(rng.integers(k))])

    def random_neighbor_pair(self, u: int, rng: np.random.Generator) -> Tuple[int, int]:
        """Sample two independent uniform neighbours of ``u`` (with replacement)."""
        k = int(self._deg[u])
        if k == 0:
            raise ValueError(f"node {u} has no neighbors to sample from")
        i = int(rng.integers(k))
        j = int(rng.integers(k))
        return int(self._nbr[u, i]), int(self._nbr[u, j])

    # ------------------------------------------------------------------ #
    # derived quantities / conversions
    # ------------------------------------------------------------------ #
    def is_complete(self) -> bool:
        """True when every pair of distinct nodes is connected."""
        return self._num_edges == self._n * (self._n - 1) // 2

    def missing_edges(self) -> int:
        """Number of node pairs not yet connected by an edge."""
        return self._n * (self._n - 1) // 2 - self._num_edges

    def adjacency_matrix(self) -> np.ndarray:
        """Return the dense boolean adjacency matrix (symmetric, zero diagonal)."""
        return bitset.unpack_bool_matrix(self._bits, self._n)

    def adjacency_bits(self) -> np.ndarray:
        """The packed membership rows (``uint64``, n²/8 bits; live view, do not mutate).

        Row ``u``, bit ``v`` is the edge ``(u, v)``; symmetric with a zero
        diagonal.  This is the zero-copy input format of the closure and
        reachability kernels in :mod:`repro.graphs.bitset`.
        """
        return self._bits

    def membership_nbytes(self) -> int:
        """Bytes spent on the packed membership matrix (≈ n²/8)."""
        return int(self._bits.nbytes)

    def copy(self) -> "ArrayGraph":
        """Return an independent deep copy of the graph."""
        g = ArrayGraph(self._n)
        g._cap = self._cap
        g._nbr = self._nbr.copy()
        g._deg = self._deg.copy()
        g._bits = self._bits.copy()
        g._num_edges = self._num_edges
        return g

    @classmethod
    def stacked(cls, blocks: int, n: int) -> "ArrayGraph":
        """An edgeless union of ``blocks`` blocks of ``n`` nodes, filled by :meth:`load_block`.

        A block's rows never hold more than a complete ``n``-node graph's
        ``n − 1`` entries, so they are allocated once, at that width, and
        never grow.  Membership is the ordinary ``(blocks · n)²``-bit matrix.
        """
        g = cls(blocks * n)
        g._cap = _round_up_pow2(n - 1)
        g._nbr = np.full((g._n, g._cap), -1, dtype=ROW_DTYPE)
        return g

    def load_block(self, s: int, graph: "ArrayGraph") -> None:
        """Make block ``s`` of a :meth:`stacked` union a copy of ``graph``, IDs offset by ``s · n``.

        Rows, degrees, membership bits and the edge count are copied
        directly, not through the batched insert, after whatever the block
        held before is cleared.
        """
        offset = _block_offset(self, s, graph.n)
        self._num_edges -= int(self._deg[offset : offset + graph.n].sum()) // 2
        _load_rows(self._nbr, self._deg, self._bits, offset, graph._nbr, graph._deg)
        self._num_edges += graph._num_edges

    def subgraph(self, nodes: Sequence[int]) -> Tuple["ArrayGraph", Dict[int, int]]:
        """The induced subgraph on ``nodes`` plus the relabelling map.

        The subgraph's nodes are relabelled ``0 .. k-1`` in the order
        given; the dict maps original labels to new ones.  Edges are
        inserted in sorted canonical order, so the subgraph's rows, and a
        seeded run restricted to it, depend only on the host's edge set.
        """
        mapping = {orig: new for new, orig in enumerate(nodes)}
        if len(mapping) != len(nodes):
            raise ValueError("duplicate nodes in subgraph selection")
        inside = ((mapping[u], mapping[v]) for u, v in self.edges() if u in mapping and v in mapping)
        return ArrayGraph(len(mapping), inside), mapping

    # ------------------------------------------------------------------ #
    # dunder / misc
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if isinstance(other, ArrayGraph):
            return self._n == other.n and self.edge_list() == other.edge_list()
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("ArrayGraph is mutable and unhashable")

    def __repr__(self) -> str:
        return f"ArrayGraph(n={self._n}, m={self._num_edges}, cap={self._cap})"

    def _check_node(self, u: int) -> None:
        if not (0 <= u < self._n):
            raise IndexError(f"node {u} out of range [0, {self._n})")


class ArrayDiGraph:
    """Directed simple graph with preallocated NumPy out-neighbour storage.

    The directed counterpart of :class:`ArrayGraph`: out-neighbour rows in
    a 2-D array with amortized doubling, membership in word-packed
    ``uint64`` bitset rows (n²/8 bytes), in-degrees as counters for
    metrics.  The directed two-hop walk only follows and adds out-edges.
    """

    __slots__ = ("_n", "_out", "_out_deg", "_in_deg", "_bits", "_num_edges", "_cap")

    #: dispatch flag: directed graphs expose out_degree()/out_neighbors().
    directed = True

    def __init__(self, n: int, edges: Optional[Iterable[Tuple[int, int]]] = None) -> None:
        if n < 0:
            raise ValueError(f"number of nodes must be non-negative, got {n}")
        self._n = int(n)
        _refuse_oversized(self._n)
        self._cap = _MIN_CAPACITY
        self._out = np.full((self._n, self._cap), -1, dtype=ROW_DTYPE)
        self._out_deg = np.zeros(self._n, dtype=np.int64)
        self._in_deg = np.zeros(self._n, dtype=np.int64)
        self._bits = bitset.zeros(self._n, self._n)
        self._num_edges = 0
        if edges is not None:
            self.add_edges_batch_arrays(*_endpoints(list(edges), self._n))

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def capacity(self) -> int:
        """Current out-neighbour-row capacity (grows by doubling)."""
        return self._cap

    def number_of_nodes(self) -> int:
        """Number of nodes (alias of :attr:`n`)."""
        return self._n

    def number_of_edges(self) -> int:
        """Number of distinct directed edges currently present."""
        return self._num_edges

    def nodes(self) -> range:
        """Iterate over node identifiers ``0 .. n-1``."""
        return range(self._n)

    def out_degree(self, u: int) -> int:
        """Out-degree of node ``u``."""
        self._check_node(u)
        return int(self._out_deg[u])

    def in_degree(self, u: int) -> int:
        """In-degree of node ``u``."""
        self._check_node(u)
        return int(self._in_deg[u])

    def out_degrees(self) -> np.ndarray:
        """Return a copy of the out-degree vector."""
        return self._out_deg.copy()

    def in_degrees(self) -> np.ndarray:
        """Return a copy of the in-degree vector."""
        return self._in_deg.copy()

    def out_neighbors(self, u: int) -> np.ndarray:
        """Out-neighbour row of ``u`` in insertion order (live view; do not mutate)."""
        self._check_node(u)
        return self._out[u, : self._out_deg[u]]

    def out_neighbor_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """The padded out-neighbour-row block and out-degree vector (live views).

        Directed counterpart of :meth:`ArrayGraph.neighbor_rows`; callers
        must not mutate either array.
        """
        return self._out, self._out_deg

    def has_edge(self, u: int, v: int) -> bool:
        """Return True if the directed edge ``u -> v`` is present."""
        self._check_node(u)
        self._check_node(v)
        return bitset.get_bit(self._bits, u, v)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over directed edges ``(u, v)`` in canonical order."""
        us, vs = np.nonzero(bitset.unpack_bool_matrix(self._bits, self._n))
        return iter(zip(us.tolist(), vs.tolist()))

    def edge_list(self) -> List[Tuple[int, int]]:
        """Return a sorted list of directed edges."""
        return list(self.edges())

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add_edge(self, u: int, v: int) -> bool:
        """Add the directed edge ``u -> v``; True when genuinely new."""
        self._check_node(u)
        self._check_node(v)
        if u == v or bitset.get_bit(self._bits, u, v):
            return False
        self._ensure_capacity(int(self._out_deg[u]) + 1)
        self._out[u, self._out_deg[u]] = v
        self._out_deg[u] += 1
        self._in_deg[v] += 1
        bitset.set_bit(self._bits, u, v)
        self._num_edges += 1
        return True

    def add_edges_from(self, edges: Iterable[Tuple[int, int]]) -> int:
        """Add many directed edges; return how many were actually new."""
        return len(self.add_edges_batch_arrays(*_endpoints(list(edges), self._n)))

    def add_edges_batch(self, edges: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """Vectorized batch insert; returns the new edges in first-occurrence order."""
        if len(edges) == 0:
            return []
        return self.add_edges_batch_arrays(*_endpoints(edges, self._n)).tolist()

    def add_edges_batch_arrays(self, us: np.ndarray, vs: np.ndarray) -> EdgeArrays:
        """Array form of :meth:`add_edges_batch`: same contract, no tuples.

        Same structure as the undirected version: filter present edges
        first, dedupe the (usually few) remaining candidates, then scatter
        the new out-entries with grouped slot assignment
        (:func:`_append_slots`), at most :data:`CHUNK` proposals at a time.
        """
        return _insert_in_chunks(self._insert_chunk, us, vs, CHUNK)

    def _insert_chunk(self, us: np.ndarray, vs: np.ndarray) -> EdgeArrays:
        """One pass of :meth:`add_edges_batch_arrays` over a batch of at most a chunk."""
        add_u, add_v = _new_edges(self._bits, self._n, us, vs, directed=True)
        if add_u.shape[0]:
            slots = _append_slots(self._out_deg, add_u)
            self._ensure_capacity(int(slots.max()) + 1)
            slots += np.multiply(add_u, self._cap, dtype=np.int64)
            self._out.put(slots, add_v)
            self._in_deg += np.bincount(add_v, minlength=self._n)
            bitset.set_bits(self._bits, add_u, add_v)
            self._num_edges += add_u.shape[0]
        return EdgeArrays(add_u, add_v)

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete the directed edge ``u -> v``; True when it was present.

        ``u``'s other out-neighbours keep their order.  The discovery
        processes only add edges; the network engine's liveness eviction
        is the one caller.
        """
        self._check_node(u)
        self._check_node(v)
        if not bitset.get_bit(self._bits, u, v):
            return False
        row, k = self._out[u], int(self._out_deg[u])
        i = int(np.flatnonzero(row[:k] == v)[0])
        row[i : k - 1] = row[i + 1 : k]
        row[k - 1] = -1
        self._out_deg[u] -= 1
        self._in_deg[v] -= 1
        bitset.clear_bits(self._bits, np.array([u]), np.array([v]))
        self._num_edges -= 1
        return True

    def _ensure_capacity(self, needed: int) -> None:
        if needed <= self._cap:
            return
        new_cap = _round_up_pow2(needed)
        grown = np.full((self._n, new_cap), -1, dtype=ROW_DTYPE)
        grown[:, : self._cap] = self._out
        self._out = grown
        self._cap = new_cap

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def random_out_neighbors(self, nodes: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        """Vectorized uniform out-neighbour sample (``-1`` sentinel, bulk draws).

        Same draw contract as :meth:`ArrayGraph.random_neighbors`.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        return self.sample_out_neighbors(nodes, rng.random(nodes.shape[0]))

    def sample_out_neighbors(self, nodes: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Directed counterpart of :meth:`ArrayGraph.sample_neighbors` (drawn uniforms in)."""
        return _sample_rows(self._out, self._out_deg, nodes, u)

    def out_neighbors_at(self, nodes: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Gather ``out_neighbors(nodes[i])[idx[i]]`` per element (``-1`` passthrough)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        idx = np.asarray(idx, dtype=np.int64)
        valid = idx >= 0
        gathered = self._out[np.where(valid, nodes, 0), np.where(valid, idx, 0)]
        return np.where(valid, gathered, -1)

    def random_out_neighbor(self, u: int, rng: np.random.Generator) -> int:
        """Sample a uniformly random out-neighbour of ``u`` (scalar API parity)."""
        k = int(self._out_deg[u])
        if k == 0:
            raise ValueError(f"node {u} has no out-neighbors to sample from")
        return int(self._out[u, int(rng.integers(k))])

    # ------------------------------------------------------------------ #
    # derived quantities / conversions
    # ------------------------------------------------------------------ #
    def adjacency_matrix(self) -> np.ndarray:
        """Return the dense boolean adjacency matrix (``mat[u, v]`` iff ``u -> v``)."""
        return bitset.unpack_bool_matrix(self._bits, self._n)

    def adjacency_bits(self) -> np.ndarray:
        """The packed out-edge membership rows (live view, do not mutate).

        Row ``u``, bit ``v`` is the directed edge ``u -> v`` — the zero-copy
        input of the bitset closure/reachability kernels.
        """
        return self._bits

    def membership_nbytes(self) -> int:
        """Bytes spent on the packed membership matrix (≈ n²/8)."""
        return int(self._bits.nbytes)

    def copy(self) -> "ArrayDiGraph":
        """Return an independent deep copy of the digraph."""
        g = ArrayDiGraph(self._n)
        g._cap = self._cap
        g._out = self._out.copy()
        g._out_deg = self._out_deg.copy()
        g._in_deg = self._in_deg.copy()
        g._bits = self._bits.copy()
        g._num_edges = self._num_edges
        return g

    @classmethod
    def stacked(cls, blocks: int, n: int) -> "ArrayDiGraph":
        """Directed counterpart of :meth:`ArrayGraph.stacked`."""
        g = cls(blocks * n)
        g._cap = _round_up_pow2(n - 1)
        g._out = np.full((g._n, g._cap), -1, dtype=ROW_DTYPE)
        return g

    def load_block(self, s: int, graph: "ArrayDiGraph") -> None:
        """Directed counterpart of :meth:`ArrayGraph.load_block`; in-degrees are copied too."""
        offset = _block_offset(self, s, graph.n)
        block = slice(offset, offset + graph.n)
        self._num_edges -= int(self._out_deg[block].sum())
        _load_rows(self._out, self._out_deg, self._bits, offset, graph._out, graph._out_deg)
        self._in_deg[block] = graph._in_deg
        self._num_edges += graph._num_edges

    def to_undirected(self) -> ArrayGraph:
        """Return the undirected graph obtained by forgetting edge direction."""
        return ArrayGraph(self._n, self.edge_list())

    # ------------------------------------------------------------------ #
    # dunder / misc
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if isinstance(other, ArrayDiGraph):
            return self._n == other.n and self.edge_list() == other.edge_list()
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("ArrayDiGraph is mutable and unhashable")

    def __repr__(self) -> str:
        return f"ArrayDiGraph(n={self._n}, m={self._num_edges}, cap={self._cap})"

    def _check_node(self, u: int) -> None:
        if not (0 <= u < self._n):
            raise IndexError(f"node {u} out of range [0, {self._n})")
