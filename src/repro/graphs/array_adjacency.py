"""The graph substrate of the discovery processes: NumPy rows plus packed bits.

:class:`ArrayGraph` and :class:`ArrayDiGraph` store the neighbour lists
in one preallocated 2-D ``int64`` array (one row per node, amortized
column doubling) plus a word-packed membership matrix.  Per-round work
is then whole-array operations:

* ``sample_neighbors(nodes, u)`` — one neighbour per node for uniforms
  the caller already drew, gathered by flat index from the row block;
  ``random_neighbors(nodes, rng)`` is the same with its own
  ``rng.random(m)`` draw;
* ``add_edges_batch_arrays(us, vs)`` — one packed membership test over
  every proposal, then duplicate/self-loop rejection with
  first-occurrence order preserved and O(1) slot writes for the (few)
  genuinely new edges, which come back as :class:`EdgeArrays`.

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
before anything is allocated.

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

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graphs import bitset
from repro.graphs.sampling import masked_counts, uniform_indices

__all__ = ["ArrayGraph", "ArrayDiGraph", "EdgeArrays"]

_MIN_CAPACITY = 4


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

    Counts the packed membership rows (``n · ⌈n/64⌉`` words) and the first
    neighbour block (``n · 4`` slots), both eight bytes an entry, and asks
    the OS only from :data:`_PROBE_BYTES` on.
    """
    nbytes = 8 * n * (bitset.words_for(n) + _MIN_CAPACITY)
    if nbytes < _PROBE_BYTES:
        return
    available = _available_memory()
    if available is not None and nbytes > available:
        raise MemoryError(
            f"a graph on n={n} nodes needs {nbytes} bytes of membership rows and "
            f"neighbour block, but only {available} bytes are available"
        )


class EdgeArrays:
    """A batch of edges as two ``int64`` endpoint arrays, in order.

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
    ``take`` at ``node · capacity + idx`` into the row block.  A ``-1``
    node (a dead end handed on by an earlier hop) or a node of degree 0
    yields ``-1``; only a batch that holds one pays for the masking.
    """
    if nodes.size and nodes.min() < 0:
        nodes, counts = masked_counts(nodes, deg)
    else:
        counts = deg.take(nodes)
    idx = uniform_indices(u, counts)
    out = rows.take(nodes * rows.shape[1] + idx)
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
    composite = keys << shift
    composite |= np.arange(k, dtype=np.int64)
    composite.sort()
    return composite >> shift, composite & ((1 << shift) - 1)


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
    its run: a later occurrence of an edge earlier in the batch.
    """
    cand = (~bitset.get_bits(bits, us, vs)).nonzero()[0]
    add_u, add_v = us[cand], vs[cand]
    if cand.size > 1:
        if directed:
            keys = add_u * np.int64(n) + add_v
        else:
            keys = np.minimum(add_u, add_v) * np.int64(n) + np.maximum(add_u, add_v)
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
    consecutive slots in batch order (ranked within the row's run of
    :func:`_stable_sort` order by ``searchsorted``), which is exactly
    where appending them one at a time would put them.
    """
    sorted_ends, order = _stable_sort(ends, deg.shape[0])
    slots = np.empty_like(ends)
    slots[order] = np.arange(ends.shape[0]) - np.searchsorted(sorted_ends, sorted_ends)
    slots += deg[ends]
    return slots


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
        self._nbr = np.full((self._n, self._cap), -1, dtype=np.int64)
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
        almost every proposal already exists — skip the sort entirely.
        """
        add_u, add_v = _new_edges(self._bits, self._n, us, vs, directed=False)
        if add_u.shape[0]:
            self._write_new_edges(add_u, add_v)
        return EdgeArrays(add_u, add_v)

    def _write_new_edges(self, add_u: np.ndarray, add_v: np.ndarray) -> None:
        """Append the mutual neighbour entries and membership bits of verified-new edges.

        Interleaving the endpoints (u-entry before v-entry, in batch order)
        makes :func:`_append_slots` reproduce the exact append order of
        sequential :meth:`add_edge` calls.  The interleaved pairs hold both
        orientations, so one scatter sets both bits of every edge.
        """
        k = add_u.shape[0]
        ends = np.empty(2 * k, dtype=np.int64)
        vals = np.empty(2 * k, dtype=np.int64)
        ends[0::2] = add_u
        ends[1::2] = add_v
        vals[0::2] = add_v
        vals[1::2] = add_u
        slots = _append_slots(self._deg, ends)
        self._ensure_capacity(int(slots.max()) + 1)
        self._nbr.put(ends * self._cap + slots, vals)
        self._deg += np.bincount(ends, minlength=self._n)
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
        grown = np.full((self._n, new_cap), -1, dtype=np.int64)
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
        self._out = np.full((self._n, self._cap), -1, dtype=np.int64)
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
        (:func:`_append_slots`).
        """
        add_u, add_v = _new_edges(self._bits, self._n, us, vs, directed=True)
        if add_u.shape[0]:
            slots = _append_slots(self._out_deg, add_u)
            self._ensure_capacity(int(slots.max()) + 1)
            self._out.put(add_u * self._cap + slots, add_v)
            self._out_deg += np.bincount(add_u, minlength=self._n)
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
        grown = np.full((self._n, new_cap), -1, dtype=np.int64)
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
