"""Transitive closure and reachability utilities for directed termination.

The directed two-hop walk terminates when, for every ordered pair
``(u, v)`` with a ``u → v`` path in the *initial* graph ``G_0``, the edge
``(u, v)`` is present.  The target edge set is therefore the transitive
closure of ``G_0``; these helpers compute it once so the simulation engine
can track "missing closure edges" with an O(1)-per-added-edge counter.

All closure/reachability computations run on the word-packed bitset
kernels of :mod:`repro.graphs.bitset`: adjacency rows are the graph's
own ``uint64`` membership rows (zero-copy), all-pairs reachability is
Warshall elimination on packed rows,
and single-source reachability is a frontier BFS that ORs whole adjacency
rows — 64 pairs per machine-word operation instead of one queue pop per
node.  The original per-node Python BFS survives as
:func:`reachable_from_bfs` / :func:`reachability_matrix_bfs`, the oracle
the property tests check the kernels against.
"""

from __future__ import annotations

from collections import deque
from typing import List, Set, Tuple

import numpy as np

from repro.graphs import bitset
from repro.graphs.array_adjacency import ArrayDiGraph

__all__ = [
    "adjacency_bits",
    "reachable_from",
    "reachable_from_bfs",
    "reachability_matrix",
    "reachability_matrix_bfs",
    "reachability_bits",
    "closure_target_bits",
    "transitive_closure_edges",
    "transitive_closure_graph",
    "closure_deficit",
    "is_transitively_closed",
]

DiGraphLike = ArrayDiGraph


def adjacency_bits(graph) -> np.ndarray:
    """Packed ``uint64`` adjacency rows of ``graph`` (bit ``v`` of row ``u``).

    The graph's own ``adjacency_bits()``, zero-copy.  Callers must treat
    the result as read-only: it aliases live graph state.
    """
    return graph.adjacency_bits()


def reachable_from(graph: DiGraphLike, source: int) -> Set[int]:
    """Nodes reachable from ``source`` along directed edges, excluding ``source``
    itself unless it lies on a directed cycle through ``source``.

    Word-parallel frontier BFS: each iteration ORs the packed adjacency
    rows of the whole frontier at once.
    """
    reach = bitset.reachable_bits(adjacency_bits(graph), source)
    return set(bitset.indices_from_bits(reach, graph.n).tolist())


def reachable_from_bfs(graph: DiGraphLike, source: int) -> Set[int]:
    """Reference implementation of :func:`reachable_from` (per-node Python BFS).

    Kept as the oracle the bitset kernel is property-tested against; not
    used on any hot path.
    """
    seen = np.zeros(graph.n, dtype=bool)
    queue = deque(graph.out_neighbors(source))
    for v in graph.out_neighbors(source):
        seen[v] = True
    result: Set[int] = set(int(v) for v in graph.out_neighbors(source))
    while queue:
        u = queue.popleft()
        for v in graph.out_neighbors(u):
            if not seen[v]:
                seen[v] = True
                result.add(int(v))
                queue.append(v)
    return result


def reachability_bits(graph: DiGraphLike) -> np.ndarray:
    """Packed all-pairs reachability matrix (Warshall on ``uint64`` rows).

    Bit ``v`` of row ``u`` is set iff there is a nonempty directed path
    ``u → v``; the diagonal bit is set iff ``u`` lies on a cycle.
    """
    return bitset.transitive_closure_bits(adjacency_bits(graph), graph.n)


def closure_target_bits(graph: DiGraphLike) -> np.ndarray:
    """Packed transitive closure of ``graph`` without its diagonal (a new array).

    Bit ``v`` of row ``u`` is set iff ``u != v`` and there is a directed
    path ``u → v``: the edge set a closure-terminated process (the
    directed walk, directed pointer jump) must reach.  A cycle through
    ``u`` is never an edge, so the diagonal is cleared.
    """
    target = reachability_bits(graph)
    diag = np.arange(graph.n, dtype=np.int64)
    bitset.clear_bits(target, diag, diag)
    return target


def reachability_matrix(graph: DiGraphLike) -> np.ndarray:
    """Boolean matrix R with ``R[u, v]`` true iff there is a nonempty directed
    path from ``u`` to ``v``.  ``R[u, u]`` is true iff ``u`` lies on a cycle."""
    return bitset.unpack_bool_matrix(reachability_bits(graph), graph.n)


def reachability_matrix_bfs(graph: DiGraphLike) -> np.ndarray:
    """Reference implementation of :func:`reachability_matrix` (n Python BFS
    traversals, O(n·m)).  Kept as the property-test oracle."""
    n = graph.n
    mat = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in reachable_from_bfs(graph, u):
            mat[u, v] = True
    return mat


def transitive_closure_edges(graph: DiGraphLike) -> Set[Tuple[int, int]]:
    """All ordered pairs ``(u, v)``, ``u != v``, with a directed path ``u → v``."""
    us, vs = bitset.bit_pairs(closure_target_bits(graph), graph.n)
    return set(zip(us.tolist(), vs.tolist()))


def transitive_closure_graph(graph: DiGraphLike) -> ArrayDiGraph:
    """The transitive closure of ``graph`` as a new :class:`ArrayDiGraph`, rows in canonical order."""
    closed = ArrayDiGraph(graph.n)
    closed.add_edges_batch_arrays(*bitset.bit_pairs(closure_target_bits(graph), graph.n))
    return closed


def closure_deficit(graph: DiGraphLike, closure: Set[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Edges of the target closure not yet present in ``graph`` (sorted)."""
    if not closure:
        return []
    arr = np.asarray(sorted(closure), dtype=np.int64)
    present = bitset.get_bits(adjacency_bits(graph), arr[:, 0], arr[:, 1])
    missing = arr[~present]
    return [(int(u), int(v)) for u, v in missing]


def is_transitively_closed(graph: DiGraphLike) -> bool:
    """True when ``graph`` already equals its own transitive closure.

    One packed comparison: every off-diagonal closure bit must already be
    an adjacency bit.
    """
    return not bool((closure_target_bits(graph) & ~adjacency_bits(graph)).any())
