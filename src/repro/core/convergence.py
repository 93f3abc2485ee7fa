"""Reusable stopping predicates for :meth:`DiscoveryProcess.run`.

All predicates take the process and return a bool, so they compose with
the ``until=`` parameter of the run loop.  Factories return fresh
predicates configured with their thresholds.

The predicates are evaluated after *every* round, so they run on the
process's incrementally-maintained counters (edge counts are O(1) on the
graphs; minimum degree comes from
:meth:`~repro.core.base.DiscoveryProcess.cached_min_degree`, which is
patched per round instead of recomputed O(n²)-style from the graph).
"""

from __future__ import annotations

from typing import Callable

from repro.core.base import DiscoveryProcess

__all__ = [
    "complete_graph_reached",
    "closure_reached",
    "min_degree_reached",
    "edge_count_reached",
    "rounds_elapsed",
    "any_of",
    "all_of",
]

Predicate = Callable[[DiscoveryProcess], bool]


def complete_graph_reached(process: DiscoveryProcess) -> bool:
    """True when the (undirected) graph has every possible edge.

    O(1): the graph maintains its edge count as a counter, so no
    membership scan happens per round.
    """
    graph = process.graph
    if not graph.directed:
        return graph.is_complete()
    # A digraph is "complete" when every ordered pair is present.
    return graph.number_of_edges() == graph.n * (graph.n - 1)


def closure_reached(process: DiscoveryProcess) -> bool:
    """True when a directed process has added its full target closure.

    Falls back to the process's own :meth:`is_converged` so it also works
    as a generic predicate.
    """
    return process.is_converged()


def min_degree_reached(threshold: int) -> Predicate:
    """Factory: stop once the minimum degree reaches ``threshold``.

    This is the quantity the paper's proof engine tracks (the minimum
    degree grows by a constant factor every O(n log n) rounds); experiment
    E8 uses it to measure growth phases.  Reads the process's incremental
    degree cache — no per-round degree-vector copy.
    """

    def predicate(process: DiscoveryProcess) -> bool:
        cached = getattr(process, "cached_min_degree", None)
        if cached is not None:
            return cached() >= threshold
        graph = process.graph
        if not graph.directed:
            return graph.min_degree() >= threshold
        return int(graph.out_degrees().min()) >= threshold

    return predicate


def edge_count_reached(threshold: int) -> Predicate:
    """Factory: stop once the graph has at least ``threshold`` edges."""

    def predicate(process: DiscoveryProcess) -> bool:
        return process.graph.number_of_edges() >= threshold

    return predicate


def rounds_elapsed(threshold: int) -> Predicate:
    """Factory: stop once the process has executed ``threshold`` rounds in total."""

    def predicate(process: DiscoveryProcess) -> bool:
        return process.round_index >= threshold

    return predicate


def any_of(*predicates: Predicate) -> Predicate:
    """Combine predicates with logical OR."""

    def predicate(process: DiscoveryProcess) -> bool:
        return any(p(process) for p in predicates)

    return predicate


def all_of(*predicates: Predicate) -> Predicate:
    """Combine predicates with logical AND."""

    def predicate(process: DiscoveryProcess) -> bool:
        return all(p(process) for p in predicates)

    return predicate
