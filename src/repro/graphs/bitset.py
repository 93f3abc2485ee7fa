"""Word-packed (``uint64``) bitset kernels for dense set algebra.

The convergence sweeps of the paper's experiments spend their rounds on
dense-set work: membership tests ("is edge (u, v) present?"), completeness
and closure predicates ("is every required pair connected yet?"), and
reachability.  All of those are set-algebra operations on rows of an n×n
boolean matrix, and a ``bool`` matrix pays one *byte* per bit.

This module packs each length-``n`` boolean row into ``ceil(n / 64)``
``uint64`` words (LSB-first within a word, so bit ``v`` of row ``u`` lives
at ``bits[u, v >> 6] >> (v & 63) & 1``).  The memory model is therefore
``n² / 8`` bytes — 8× smaller than the ``bool`` matrix — and every kernel
below operates on 64 set elements per machine word:

* :func:`get_bits` / :func:`set_bits` — batched membership test / insert
  for whole ``(rows, cols)`` index arrays;
* :func:`popcount` / :func:`row_popcounts` — word-parallel bit counting
  (via ``np.bitwise_count`` when available, an 8-bit lookup otherwise);
* :func:`or_rows` — OR-reduction of selected rows (the frontier-merge
  primitive of bitset BFS);
* :func:`rows_or_into` / :func:`delta_edges` — row-union delivery (sorted
  by destination, one ``reduceat`` per run of a destination) and new-edge
  extraction: the payload-merge primitives of the baseline processes,
  whose messages are whole neighbour sets;
* :func:`transitive_closure_bits` — all-pairs reachability by Warshall
  elimination on packed rows (n vectorized row-OR passes, O(n³ / 64) bit
  operations total);
* :func:`reachable_bits` / :func:`bfs_distances_bits` — single-source
  frontier BFS that advances one whole level per row-OR.

The kernels are deliberately graph-agnostic (plain arrays in, plain arrays
out); :mod:`repro.graphs.array_adjacency` stores its membership matrix in
this format and :mod:`repro.graphs.closure` builds the transitive-closure
machinery on top.  Pure NumPy, no Python-level per-edge loops anywhere.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "WORD_BITS",
    "words_for",
    "zeros",
    "pack_bool_matrix",
    "unpack_bool_matrix",
    "get_bit",
    "set_bit",
    "get_bits",
    "set_bits",
    "clear_bits",
    "popcount",
    "row_popcounts",
    "count_total",
    "or_rows",
    "rows_or_into",
    "delta_edges",
    "indices_from_bits",
    "transitive_closure_bits",
    "closure_add_edges",
    "reachable_bits",
    "bfs_distances_bits",
    "transpose_bits",
]

#: bits per storage word.
WORD_BITS = 64

_ONE = np.uint64(1)
_SIX = np.uint64(6)
_MASK6 = np.uint64(63)

#: 8-bit popcount lookup, the fallback when ``np.bitwise_count`` is absent.
_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def words_for(n_bits: int) -> int:
    """Number of ``uint64`` words needed to hold ``n_bits`` bits."""
    if n_bits < 0:
        raise ValueError(f"bit count must be non-negative, got {n_bits}")
    return (n_bits + WORD_BITS - 1) // WORD_BITS


def zeros(rows: int, n_bits: int) -> np.ndarray:
    """Allocate an all-clear packed matrix of ``rows`` × ``n_bits`` bits."""
    return np.zeros((rows, words_for(n_bits)), dtype=np.uint64)


def _le_bytes(bits: np.ndarray) -> np.ndarray:
    """View packed words as bytes in little-endian (LSB-first) order."""
    arr = np.ascontiguousarray(bits)
    if not np.little_endian:  # pragma: no cover - big-endian hosts only
        arr = arr.byteswap()
    return arr.view(np.uint8)


def pack_bool_matrix(mat: np.ndarray) -> np.ndarray:
    """Pack a 2-D boolean matrix into ``uint64`` rows (LSB-first).

    The inverse of :func:`unpack_bool_matrix`; nonzero entries of any dtype
    count as set bits.
    """
    mat = np.ascontiguousarray(mat, dtype=bool)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {mat.shape}")
    rows, n_bits = mat.shape
    words = words_for(n_bits)
    if rows == 0 or words == 0:
        return np.zeros((rows, words), dtype=np.uint64)
    packed_bytes = np.packbits(mat, axis=1, bitorder="little")
    padded = np.zeros((rows, words * 8), dtype=np.uint8)
    padded[:, : packed_bytes.shape[1]] = packed_bytes
    if not np.little_endian:  # pragma: no cover - big-endian hosts only
        return padded.view(np.uint64).byteswap()
    return padded.view(np.uint64)


def unpack_bool_matrix(bits: np.ndarray, n_bits: int) -> np.ndarray:
    """Unpack ``uint64`` rows back to a ``(rows, n_bits)`` boolean matrix."""
    bits = np.asarray(bits, dtype=np.uint64)
    rows = bits.shape[0]
    if rows == 0 or n_bits == 0 or bits.shape[1] == 0:
        return np.zeros((rows, n_bits), dtype=bool)
    unpacked = np.unpackbits(_le_bytes(bits).reshape(rows, -1), axis=1, bitorder="little")
    return unpacked[:, :n_bits].astype(bool)


def get_bit(bits: np.ndarray, row: int, col: int) -> bool:
    """Scalar membership test: is bit ``col`` of ``row`` set?

    Both indices are coerced to ``int`` first: with a NumPy-integer
    ``col``, ``col & 63`` stays a NumPy integer, and shifting the Python
    int of a word with bit 63 set by it overflows a C long.
    """
    row, col = int(row), int(col)
    return bool((int(bits[row, col >> 6]) >> (col & 63)) & 1)


def set_bit(bits: np.ndarray, row: int, col: int) -> None:
    """Scalar insert: set bit ``col`` of ``row``."""
    bits[row, col >> 6] |= np.uint64(1 << (col & 63))


def _word_and_mask(cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split bit positions into (word index, single-bit mask) arrays."""
    cols = np.asarray(cols, dtype=np.int64).astype(np.uint64)
    return (cols >> _SIX).astype(np.int64), _ONE << (cols & _MASK6)


def get_bits(bits: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Batched membership test: boolean array of ``bits[rows[i], cols[i]]``.

    Reads the packed words directly: one flat gather at ``row · words +
    (col >> 6)`` of the matrix viewed as ``int64``, then a shift by
    ``col & 63``.  The arithmetic shift smears the sign bit only into the
    high bits, so the low bit is still bit ``col``.  No bit mask is built,
    and no temporary is larger than one ``int64`` per test.
    """
    cols = np.asarray(cols, dtype=np.int64)
    flat = np.asarray(rows, dtype=np.int64) * bits.shape[1] + (cols >> 6)
    words = bits.view(np.int64).take(flat)
    words >>= cols & 63
    words &= 1
    return words.astype(bool)


def set_bits(bits: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Batched insert: set bit ``cols[i]`` of row ``rows[i]`` for every i.

    Duplicate positions and positions sharing a storage word are handled
    correctly (unbuffered ``bitwise_or.at`` scatter).
    """
    rows = np.asarray(rows, dtype=np.int64)
    word, mask = _word_and_mask(cols)
    np.bitwise_or.at(bits, (rows, word), mask)


def clear_bits(bits: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Batched clear: unset bit ``cols[i]`` of row ``rows[i]`` for every i."""
    rows = np.asarray(rows, dtype=np.int64)
    word, mask = _word_and_mask(cols)
    np.bitwise_and.at(bits, (rows, word), ~mask)


if hasattr(np, "bitwise_count"):

    def popcount(bits: np.ndarray) -> np.ndarray:
        """Per-word set-bit counts (shape-preserving)."""
        return np.bitwise_count(bits)

else:  # pragma: no cover - exercised only on NumPy < 2.0

    def popcount(bits: np.ndarray) -> np.ndarray:
        """Per-word set-bit counts via an 8-bit lookup (shape-preserving)."""
        bits = np.asarray(bits, dtype=np.uint64)
        per_byte = _POP8[np.ascontiguousarray(bits).view(np.uint8)]
        return per_byte.reshape(bits.shape + (8,)).sum(axis=-1).astype(np.uint64)


def row_popcounts(bits: np.ndarray) -> np.ndarray:
    """Number of set bits in each row, as ``int64``."""
    if bits.size == 0:
        return np.zeros(bits.shape[0], dtype=np.int64)
    return popcount(bits).sum(axis=-1).astype(np.int64)


def count_total(bits: np.ndarray) -> int:
    """Total number of set bits in the whole packed matrix."""
    if bits.size == 0:
        return 0
    return int(popcount(bits).sum())


def or_rows(bits: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """OR-reduce the selected rows into one packed row vector.

    The frontier-merge primitive: the union of the adjacency rows of every
    node in ``rows``, 64 membership bits per word operation.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return np.zeros(bits.shape[1], dtype=np.uint64)
    return np.bitwise_or.reduce(bits[rows], axis=0)


def rows_or_into(
    dst_bits: np.ndarray,
    dst_rows: np.ndarray,
    src_bits: np.ndarray,
    src_rows: Optional[np.ndarray] = None,
    chunk: int = 4096,
) -> None:
    """Batched row-union delivery: OR source rows into destination rows.

    For every delivery ``i``, ``dst_bits[dst_rows[i]] |= payload_i`` where
    ``payload_i`` is ``src_bits[src_rows[i]]`` (or row ``i`` of ``src_bits``
    itself when ``src_rows`` is None and ``src_bits`` carries one payload
    row per delivery).  This is the packed form of "send your whole known
    set": one message becomes one row-OR, 64 IDs per word operation.

    The deliveries are sorted by destination (one ``np.sort`` of the
    composite keys ``dst · S + src``, ``S`` the number of source rows; OR
    commutes, so any order within a destination will do).  Each chunk of
    ``chunk`` sorted deliveries then gathers its payload rows,
    ``bitwise_or.reduceat`` folds every run of one destination into a
    single row, and one fancy-index ``|=`` merges those rows into their
    destinations, which are unique within the chunk.  Peak scratch memory
    stays at ``chunk`` payload rows however many deliveries a round makes.
    """
    dst_rows = np.asarray(dst_rows, dtype=np.int64)
    deliveries = dst_rows.shape[0]
    if src_rows is not None:
        src_rows = np.asarray(src_rows, dtype=np.int64)
        if src_rows.shape[0] != deliveries:
            raise ValueError(
                f"src_rows has {src_rows.shape[0]} entries for {deliveries} deliveries"
            )
    elif src_bits.shape[0] != deliveries:
        raise ValueError(
            f"src_bits has {src_bits.shape[0]} payload rows for {deliveries} deliveries"
        )
    if deliveries == 0:
        return
    span = src_bits.shape[0]
    keys = dst_rows * span
    keys += src_rows if src_rows is not None else np.arange(deliveries, dtype=np.int64)
    keys.sort()
    dst_sorted, src_sorted = np.divmod(keys, span)
    for start in range(0, deliveries, chunk):
        dst = dst_sorted[start : start + chunk]
        runs = np.flatnonzero(np.concatenate(([True], dst[1:] != dst[:-1])))
        payload = src_bits[src_sorted[start : start + chunk]]
        dst_bits[dst[runs]] |= np.bitwise_or.reduceat(payload, runs, axis=0)


def delta_edges(
    old_bits: np.ndarray, new_bits: np.ndarray, n_bits: int, directed: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays of the bits set in ``new_bits`` but not ``old_bits``.

    The popcount-delta companion of :func:`rows_or_into`: after a round of
    row-union deliveries, this extracts exactly the genuinely new edges in
    canonical row-major order.  With ``directed=False`` each undirected
    edge is reported once, oriented ``u < v`` (upper triangle).
    """
    delta = unpack_bool_matrix(new_bits & ~old_bits, n_bits)
    us, vs = np.nonzero(delta)
    us, vs = us.astype(np.int64), vs.astype(np.int64)
    if directed:
        return us, vs
    # One undirected report per edge (u < v) without a second dense copy.
    keep = us < vs
    return us[keep], vs[keep]


def indices_from_bits(row: np.ndarray, n_bits: int) -> np.ndarray:
    """Set-bit positions of one packed row vector, ascending ``int64``."""
    row = np.asarray(row, dtype=np.uint64).reshape(1, -1)
    return np.flatnonzero(unpack_bool_matrix(row, n_bits)[0]).astype(np.int64)


def transitive_closure_bits(bits: np.ndarray, n_bits: int) -> np.ndarray:
    """All-pairs reachability (nonempty directed paths) of a packed adjacency.

    Warshall elimination on packed rows: after processing pivot ``k``,
    ``R[u]`` holds every node reachable from ``u`` through intermediates
    ``<= k``.  Each pivot is two vectorized passes (a column extraction and
    a masked row-OR), so the Python-level loop is O(n) regardless of the
    edge count.  ``R[u, u]`` ends up set iff ``u`` lies on a directed cycle
    — the same convention as the BFS reference implementation.
    """
    reach = np.array(bits, dtype=np.uint64, copy=True)
    if n_bits == 0 or reach.shape[0] == 0:
        return reach
    for k in range(n_bits):
        into_k = (reach[:, k >> 6] & np.uint64(1 << (k & 63))) != 0
        if into_k.any():
            # The pivot row aliases the output, but benignly: OR is
            # idempotent, so even if row k is merged into itself first the
            # other rows absorb the same (unchanged) word values.
            np.bitwise_or(reach, reach[k][None, :], out=reach, where=into_k[:, None])
    return reach


def closure_add_edges(reach: np.ndarray, us: np.ndarray, vs: np.ndarray) -> int:
    """Update a packed reachability matrix for a batch of newly inserted edges.

    ``reach`` must be the transitive closure of some edge set (as produced
    by :func:`transitive_closure_bits`); after the call it is the closure
    of that edge set plus the edges ``(us[i], vs[i])``.  The incremental
    rule for one edge ``u → v``: every row that reaches ``u`` (plus row
    ``u`` itself) absorbs ``R[v] ∪ {v}`` — two vectorized passes (a column
    extraction and a masked row-OR), the same shape as one Warshall pivot.
    Edges already implied by the closure are skipped with one batched
    membership test, so a batch whose edges all lie inside the existing
    closure costs O(batch) instead of O(n²); a full recompute is O(n³/64).
    The diagonal convention matches :func:`transitive_closure_bits`
    (``R[u, u]`` set iff ``u`` lies on a directed cycle).

    Returns the number of edges that actually extended the closure.
    """
    us = np.asarray(us, dtype=np.int64).reshape(-1)
    vs = np.asarray(vs, dtype=np.int64).reshape(-1)
    if us.shape[0] != vs.shape[0]:
        raise ValueError(f"endpoint arrays disagree: {us.shape[0]} vs {vs.shape[0]}")
    if us.shape[0] == 0:
        return 0
    pending = np.flatnonzero(~get_bits(reach, us, vs))
    changed = 0
    for i in pending.tolist():
        u, v = int(us[i]), int(vs[i])
        # An earlier edge of this batch may have implied this one already.
        if get_bit(reach, u, v):
            continue
        new_row = reach[v].copy()
        new_row[v >> 6] |= np.uint64(1 << (v & 63))
        into_u = (reach[:, u >> 6] & np.uint64(1 << (u & 63))) != 0
        into_u[u] = True
        np.bitwise_or(reach, new_row[None, :], out=reach, where=into_u[:, None])
        changed += 1
    return changed


def reachable_bits(bits: np.ndarray, source: int) -> np.ndarray:
    """Packed set of nodes reachable from ``source`` along nonempty paths.

    Frontier BFS with whole-row ORs: each iteration advances one BFS level
    for *all* frontier nodes at once.  ``source`` itself is included only
    when it lies on a directed cycle, matching the closure convention.
    """
    n_bits = bits.shape[0]
    reach = np.zeros(bits.shape[1], dtype=np.uint64)
    frontier = bits[source].copy()
    while True:
        new = frontier & ~reach
        if not new.any():
            return reach
        reach |= new
        frontier = or_rows(bits, indices_from_bits(new, n_bits))


def bfs_distances_bits(bits: np.ndarray, source: int) -> np.ndarray:
    """BFS distances from ``source`` over a packed adjacency (unreachable = -1).

    Level-synchronous: one row-OR merge per BFS level instead of one queue
    pop per node, so the distance array of a whole level is written in one
    vectorized assignment.
    """
    n_bits = bits.shape[0]
    dist = np.full(n_bits, -1, dtype=np.int64)
    dist[source] = 0
    visited = np.zeros(bits.shape[1], dtype=np.uint64)
    set_bit(visited.reshape(1, -1), 0, source)
    frontier = bits[source] & ~visited
    level = 1
    while frontier.any():
        members = indices_from_bits(frontier, n_bits)
        dist[members] = level
        visited |= frontier
        frontier = or_rows(bits, members) & ~visited
        level += 1
    return dist


def transpose_bits(bits: np.ndarray, n_bits: int) -> np.ndarray:
    """Packed transpose (reverse-edge adjacency) of a packed square matrix."""
    return pack_bool_matrix(unpack_bool_matrix(bits, n_bits).T)
