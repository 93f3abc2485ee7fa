"""Structural property computations matching the paper's notation (Table 1).

The paper reasons about, for a node ``u`` at round ``t``:

* ``d_t(u)``            — degree (``degree`` on the graph object);
* ``δ_t``               — minimum degree (``min_degree``);
* ``N^i_t(u)``          — the set of nodes at distance exactly ``i`` from ``u``
                          (:func:`neighborhood_at_distance`);
* ``d_t(v, S)``         — the number of edges from ``v`` into a node set ``S``
                          (:func:`degree_into_set`);
* strongly / weakly tied — whether ``d_t(v, S)`` is at least / below ``δ_0 / 2``
                          (:func:`is_strongly_tied`).

It also needs connectivity predicates (the processes assume a connected or
weakly/strongly connected start), distances, diameter, and the clustering
coefficient for the social-evolution experiments.
"""

from __future__ import annotations

from typing import Dict, List, Set, Union

import numpy as np

from repro.graphs import bitset
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph

__all__ = [
    "bfs_distances",
    "neighborhood_at_distance",
    "neighborhood_within_distance",
    "degree_into_set",
    "is_strongly_tied",
    "is_weakly_tied",
    "is_connected",
    "connected_components",
    "is_weakly_connected",
    "is_strongly_connected",
    "diameter",
    "eccentricity",
    "average_degree",
    "degree_histogram",
    "clustering_coefficient",
    "average_clustering",
    "missing_edge_pairs",
    "verify_lemma1",
]

GraphLike = Union[ArrayGraph, ArrayDiGraph]


# --------------------------------------------------------------------------- #
# distances and neighbourhoods
# --------------------------------------------------------------------------- #
def bfs_distances(graph: GraphLike, source: int) -> np.ndarray:
    """Return the array of BFS distances from ``source`` (unreachable = -1).

    For directed graphs the distances follow out-edges only.  The BFS is
    the word-parallel level-synchronous search of
    :func:`repro.graphs.bitset.bfs_distances_bits` over the packed
    membership rows.
    """
    return bitset.bfs_distances_bits(graph.adjacency_bits(), source)


def neighborhood_at_distance(graph: GraphLike, u: int, i: int) -> Set[int]:
    """The paper's ``N^i(u)``: nodes at distance exactly ``i`` from ``u``."""
    if i < 0:
        raise ValueError("distance must be non-negative")
    dist = bfs_distances(graph, u)
    return set(np.flatnonzero(dist == i).tolist())


def neighborhood_within_distance(graph: GraphLike, u: int, i: int) -> Set[int]:
    """Nodes at distance between 1 and ``i`` from ``u`` (``∪_{j=1..i} N^j(u)``)."""
    if i < 0:
        raise ValueError("distance must be non-negative")
    dist = bfs_distances(graph, u)
    return set(np.flatnonzero((dist >= 1) & (dist <= i)).tolist())


def degree_into_set(graph: ArrayGraph, v: int, target: Set[int]) -> int:
    """The paper's ``d(v, S)``: number of edges from ``v`` into the node set ``S``."""
    return sum(1 for w in graph.neighbors(v) if w in target)


def is_strongly_tied(graph: ArrayGraph, v: int, target: Set[int], delta0: int) -> bool:
    """True when ``v`` has at least ``δ_0 / 2`` edges into ``target`` (paper §3.1)."""
    return degree_into_set(graph, v, target) >= delta0 / 2


def is_weakly_tied(graph: ArrayGraph, v: int, target: Set[int], delta0: int) -> bool:
    """True when ``v`` has fewer than ``δ_0 / 2`` edges into ``target`` (paper §3.1)."""
    return not is_strongly_tied(graph, v, target, delta0)


# --------------------------------------------------------------------------- #
# connectivity
# --------------------------------------------------------------------------- #
def is_connected(graph: ArrayGraph) -> bool:
    """True when the undirected graph is connected (vacuously true for n <= 1)."""
    n = graph.n
    if n <= 1:
        return True
    dist = bfs_distances(graph, 0)
    return bool((dist >= 0).all())


def connected_components(graph: ArrayGraph) -> List[List[int]]:
    """Connected components of an undirected graph as sorted node lists."""
    seen = np.zeros(graph.n, dtype=bool)
    components: List[List[int]] = []
    for start in range(graph.n):
        if not seen[start]:
            comp = np.flatnonzero(bfs_distances(graph, start) >= 0)
            seen[comp] = True
            components.append(comp.tolist())
    return components


def is_weakly_connected(graph: ArrayDiGraph) -> bool:
    """True when the digraph is connected after forgetting edge directions."""
    return is_connected(graph.to_undirected())


def is_strongly_connected(graph: ArrayDiGraph) -> bool:
    """True when every node reaches every other node along directed edges."""
    n = graph.n
    if n <= 1:
        return True
    if not bool((bfs_distances(graph, 0) >= 0).all()):
        return False
    # Reverse reachability: BFS from 0 over the transposed rows.
    reverse_bits = bitset.transpose_bits(graph.adjacency_bits(), n)
    return bool((bitset.bfs_distances_bits(reverse_bits, 0) >= 0).all())


# --------------------------------------------------------------------------- #
# global statistics
# --------------------------------------------------------------------------- #
def eccentricity(graph: GraphLike, u: int) -> int:
    """Largest finite distance from ``u``; raises if some node is unreachable."""
    dist = bfs_distances(graph, u)
    if (dist < 0).any():
        raise ValueError(f"node {u} does not reach every node; eccentricity undefined")
    return int(dist.max())


def diameter(graph: GraphLike) -> int:
    """Largest pairwise distance; raises if the graph is not (strongly) connected."""
    if graph.n == 0:
        raise ValueError("diameter of an empty graph is undefined")
    return max(eccentricity(graph, u) for u in range(graph.n))


def average_degree(graph: ArrayGraph) -> float:
    """Mean degree ``2m / n`` (0.0 for an empty node set)."""
    if graph.n == 0:
        return 0.0
    return 2.0 * graph.number_of_edges() / graph.n


def degree_histogram(graph: ArrayGraph) -> Dict[int, int]:
    """Map from degree value to the number of nodes having that degree."""
    values, counts = np.unique(graph.degrees(), return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def clustering_coefficient(graph: ArrayGraph, u: int) -> float:
    """Local clustering coefficient of ``u`` (1.0 by convention for degree < 2... 0.0).

    Defined as the fraction of pairs of neighbours of ``u`` that are
    themselves adjacent; 0.0 when ``u`` has fewer than two neighbours.
    """
    nbrs = list(graph.neighbors(u))
    k = len(nbrs)
    if k < 2:
        return 0.0
    links = 0
    for i in range(k):
        for j in range(i + 1, k):
            if graph.has_edge(nbrs[i], nbrs[j]):
                links += 1
    return 2.0 * links / (k * (k - 1))


def average_clustering(graph: ArrayGraph) -> float:
    """Mean local clustering coefficient over all nodes (0.0 for empty graphs)."""
    if graph.n == 0:
        return 0.0
    return float(np.mean([clustering_coefficient(graph, u) for u in range(graph.n)]))


def missing_edge_pairs(graph: ArrayGraph) -> List[tuple]:
    """All node pairs not yet joined by an edge (the complement's edge list)."""
    return [
        (u, v)
        for u in range(graph.n)
        for v in range(u + 1, graph.n)
        if not graph.has_edge(u, v)
    ]


def verify_lemma1(graph: ArrayGraph, u: int) -> bool:
    """Check Lemma 1 for node ``u``: ``|N¹(u) ∪ ... ∪ N⁴(u)| >= min(2δ, n - 1)``.

    Only meaningful on connected graphs; returns the truth of the inequality.
    """
    delta = graph.min_degree()
    reachable = neighborhood_within_distance(graph, u, 4)
    return len(reachable) >= min(2 * delta, graph.n - 1)
