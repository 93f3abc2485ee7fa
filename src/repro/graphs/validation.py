"""Invariant validation helpers for the graph substrate.

These checks are used in tests and in the simulation engine's debug mode to
assert that the dynamic structures stay internally consistent while the
processes mutate them, and that generated starting graphs satisfy the
paper's standing assumptions (connected / weakly connected / strongly
connected, simple, no self loops).
"""

from __future__ import annotations

from typing import List

from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph
from repro.graphs import properties

__all__ = [
    "check_graph_invariants",
    "check_digraph_invariants",
    "require_connected",
    "require_weakly_connected",
    "require_strongly_connected",
    "ValidationError",
]


class ValidationError(AssertionError):
    """Raised when a graph fails an internal-consistency or precondition check."""


def check_graph_invariants(graph: ArrayGraph) -> List[str]:
    """Return a list of invariant violations (empty list = consistent).

    Checks: neighbour lists symmetric and duplicate-free, no self loops,
    edge count matches, degree vector matches neighbour-list lengths.
    """
    problems: List[str] = []
    seen_edges = set()
    for u in graph.nodes():
        nbrs = list(graph.neighbors(u))
        if len(set(nbrs)) != len(nbrs):
            problems.append(f"node {u} has duplicate entries in its neighbor list")
        if u in nbrs:
            problems.append(f"node {u} has a self loop")
        if graph.degree(u) != len(nbrs):
            problems.append(
                f"node {u}: degree counter {graph.degree(u)} != list length {len(nbrs)}"
            )
        for v in nbrs:
            if u not in graph.neighbors(v):
                problems.append(f"edge ({u}, {v}) present at {u} but not mirrored at {v}")
            if not graph.has_edge(u, v):
                problems.append(f"edge ({u}, {v}) in list but missing from edge set")
            seen_edges.add((min(u, v), max(u, v)))
    if len(seen_edges) != graph.number_of_edges():
        problems.append(
            f"edge counter {graph.number_of_edges()} != distinct edges seen {len(seen_edges)}"
        )
    return problems


def check_digraph_invariants(graph: ArrayDiGraph) -> List[str]:
    """Return a list of invariant violations for a digraph (empty = consistent)."""
    problems: List[str] = []
    seen_edges = set()
    total_out = 0
    for u in graph.nodes():
        nbrs = list(graph.out_neighbors(u))
        if len(set(nbrs)) != len(nbrs):
            problems.append(f"node {u} has duplicate out-neighbors")
        if u in nbrs:
            problems.append(f"node {u} has a self loop")
        if graph.out_degree(u) != len(nbrs):
            problems.append(
                f"node {u}: out-degree counter {graph.out_degree(u)} != list length {len(nbrs)}"
            )
        total_out += len(nbrs)
        for v in nbrs:
            if not graph.has_edge(u, v):
                problems.append(f"edge ({u}, {v}) in out-list but missing from edge set")
            seen_edges.add((u, v))
    if len(seen_edges) != graph.number_of_edges():
        problems.append(
            f"edge counter {graph.number_of_edges()} != distinct edges seen {len(seen_edges)}"
        )
    in_sum = int(graph.in_degrees().sum())
    if in_sum != total_out:
        problems.append(f"sum of in-degrees {in_sum} != sum of out-degrees {total_out}")
    return problems


def require_connected(graph: ArrayGraph) -> None:
    """Raise :class:`ValidationError` unless the undirected graph is connected."""
    if not properties.is_connected(graph):
        raise ValidationError(
            "the discovery processes require a connected starting graph "
            f"(graph has {len(properties.connected_components(graph))} components)"
        )


def require_weakly_connected(graph: ArrayDiGraph) -> None:
    """Raise :class:`ValidationError` unless the digraph is weakly connected."""
    if not properties.is_weakly_connected(graph):
        raise ValidationError("starting digraph must be weakly connected")


def require_strongly_connected(graph: ArrayDiGraph) -> None:
    """Raise :class:`ValidationError` unless the digraph is strongly connected."""
    if not properties.is_strongly_connected(graph):
        raise ValidationError("starting digraph must be strongly connected")
