"""Theory helpers: the paper's probability lemmas made executable.

These functions compute, for a *given* graph state, the exact per-round
probabilities that the paper's proofs reason about, and provide an
executable form of Lemma 2 (the coupon-collector bound on sums of
geometric random variables with growing success probabilities).  They are
used by tests to validate the simulation against hand-computable
quantities and by the analysis layer for diagnostics.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph

__all__ = [
    "push_edge_probability",
    "pull_edge_probability",
    "directed_edge_probability",
    "expected_new_edges_push",
    "expected_new_edges_pull",
    "lemma2_round_bound",
    "lemma2_empirical_quantile",
]


# --------------------------------------------------------------------------- #
# single-round, single-edge probabilities
# --------------------------------------------------------------------------- #
def push_edge_probability(graph: ArrayGraph, v: int, w: int) -> float:
    """Probability that the edge ``(v, w)`` is added in one push round.

    A node ``u`` adds ``(v, w)`` when it draws the ordered pair ``(v, w)``
    or ``(w, v)`` from its neighbourhood, i.e. with probability
    ``2 / d(u)²`` when both are neighbours of ``u``.  Different nodes act
    independently, so the round probability is
    ``1 − Π_u (1 − 2/d(u)²)`` over the common neighbours ``u``.
    Returns 0.0 when the edge already exists or ``v == w``.
    """
    if v == w or graph.has_edge(v, w):
        return 0.0
    miss_prob = 1.0
    neighbors_v = set(graph.neighbors(v))
    for u in graph.neighbors(w):
        if u in neighbors_v:
            d = graph.degree(u)
            miss_prob *= 1.0 - 2.0 / (d * d)
    return 1.0 - miss_prob


def pull_edge_probability(graph: ArrayGraph, u: int, w: int) -> float:
    """Probability that node ``u`` adds the edge ``(u, w)`` in one pull round.

    ``u`` reaches ``w`` by first choosing a common neighbour ``v`` (with
    probability ``1/d(u)``) and then ``w`` out of ``v``'s neighbours (with
    probability ``1/d(v)``).  Note the *other* endpoint ``w`` may also add
    the same undirected edge through its own walk; this function returns
    the one-sided probability for ``u``'s walk only.
    """
    if u == w or graph.has_edge(u, w):
        return 0.0
    du = graph.degree(u)
    if du == 0:
        return 0.0
    total = 0.0
    w_neighbors = set(graph.neighbors(w))
    for v in graph.neighbors(u):
        if v in w_neighbors:
            total += (1.0 / du) * (1.0 / graph.degree(v))
    return total


def directed_edge_probability(graph: ArrayDiGraph, u: int, w: int) -> float:
    """Probability that node ``u`` adds the directed edge ``(u, w)`` in one round
    of the directed two-hop walk."""
    if u == w or graph.has_edge(u, w):
        return 0.0
    du = graph.out_degree(u)
    if du == 0:
        return 0.0
    total = 0.0
    for v in graph.out_neighbors(u):
        dv = graph.out_degree(v)
        if dv == 0:
            continue
        if graph.has_edge(v, w):
            total += (1.0 / du) * (1.0 / dv)
    return total


def expected_new_edges_push(graph: ArrayGraph) -> float:
    """Expected number of *new* edges created by one push round from this state."""
    total = 0.0
    for v in range(graph.n):
        for w in range(v + 1, graph.n):
            total += push_edge_probability(graph, v, w)
    return total


def expected_new_edges_pull(graph: ArrayGraph) -> float:
    """Expected number of *new* edges created by one pull round from this state.

    For a missing pair ``{u, w}`` either endpoint's walk may create the
    edge; the two walks are independent, so the pair is created with
    probability ``1 − (1 − p_u)(1 − p_w)``.
    """
    total = 0.0
    for u in range(graph.n):
        for w in range(u + 1, graph.n):
            if graph.has_edge(u, w):
                continue
            pu = pull_edge_probability(graph, u, w)
            pw = pull_edge_probability(graph, w, u)
            total += 1.0 - (1.0 - pu) * (1.0 - pw)
    return total


# --------------------------------------------------------------------------- #
# Lemma 2
# --------------------------------------------------------------------------- #
def lemma2_round_bound(n: int, c: float = 1.0) -> float:
    """The Lemma-2 bound ``(c + 1)·n·ln n`` on the total number of trials.

    Lemma 2: for ``k ≤ m ≤ n`` Bernoulli experiments where the i-th has
    success probability at least ``i/m``, the total number of trials until
    every experiment succeeds exceeds ``(c+1)·n·ln n`` with probability
    less than ``1/n^c``.
    """
    if n < 2:
        raise ValueError("the bound is stated for n >= 2")
    if c <= 0:
        raise ValueError("c must be positive")
    return (c + 1.0) * n * math.log(n)


def lemma2_empirical_quantile(
    m: int,
    k: Optional[int] = None,
    trials: int = 200,
    c: float = 1.0,
    rng: Union[np.random.Generator, int, None] = None,
) -> Tuple[float, float]:
    """Simulate the Lemma-2 experiment sequence and check the tail bound.

    Runs ``trials`` independent simulations of the worst-case instance
    (experiment ``i`` succeeds with probability exactly ``i/m``), sums the
    geometric waiting times, and returns ``(fraction_exceeding_bound,
    bound)`` where ``bound = (c+1)·m·ln m``.  Lemma 2 promises the fraction
    is below ``1/m^c`` (so effectively 0 for the sizes used in tests).

    ``rng`` must be an explicit ``np.random.Generator`` or integer seed —
    the Monte-Carlo estimate is part of the replayable record, so there is
    no unseeded fallback.
    """
    if k is None:
        k = m
    if not (1 <= k <= m):
        raise ValueError("need 1 <= k <= m")
    if rng is None:
        raise ValueError(
            "lemma2_empirical_quantile requires an explicit rng (a "
            "np.random.Generator or an integer seed); unseeded runs are not "
            "replayable"
        )
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    bound = lemma2_round_bound(m, c)
    probabilities = np.arange(1, k + 1) / float(m)
    exceed = 0
    for _ in range(trials):
        waits = rng.geometric(probabilities)
        if float(waits.sum()) > bound:
            exceed += 1
    return exceed / trials, bound
