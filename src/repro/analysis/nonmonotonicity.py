"""Exact and Monte-Carlo expected convergence times for tiny graphs (experiment E4).

Figure 1(c) of the paper exhibits non-monotonicity: the expected number of
rounds for the triangulation process to complete the 4-edge example graph
*exceeds* the expectation for its 3-edge path subgraph, even though the
former has strictly more edges.  Because the graphs are tiny we can verify
this exactly: the process is an absorbing Markov chain on the (small)
lattice of supergraphs of the start graph, and the expected absorption
time is the solution of a linear system.

The exact engine works for any graph small enough that the product of
squared degrees stays enumerable (n ≲ 6); the Monte-Carlo estimator works
for anything and is used to cross-check the exact numbers.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.pull import PullDiscovery
from repro.core.push import PushDiscovery
from repro.graphs.array_adjacency import ArrayGraph
from repro.simulation.rng import require_seed

__all__ = [
    "exact_expected_convergence_time",
    "monte_carlo_expected_convergence_time",
    "nonmonotonicity_gap",
]

EdgeSet = FrozenSet[Tuple[int, int]]


def _edge(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _state_of(graph: ArrayGraph) -> EdgeSet:
    return frozenset(graph.edges())


def _neighbors_of_state(n: int, state: EdgeSet) -> List[List[int]]:
    nbrs: List[List[int]] = [[] for _ in range(n)]
    for u, v in sorted(state):
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def _complete_state(n: int) -> EdgeSet:
    return frozenset(_edge(u, v) for u in range(n) for v in range(u + 1, n))


def _push_round_distribution(n: int, state: EdgeSet) -> Dict[EdgeSet, float]:
    """Distribution over next states after one synchronous triangulation round."""
    nbrs = _neighbors_of_state(n, state)
    # Each node independently picks an ordered pair of neighbours; enumerate
    # the product of per-node choices with their probabilities.
    per_node_choices: List[List[Tuple[Optional[Tuple[int, int]], float]]] = []
    for u in range(n):
        d = len(nbrs[u])
        if d == 0:
            per_node_choices.append([(None, 1.0)])
            continue
        choices: Dict[Optional[Tuple[int, int]], float] = {}
        p = 1.0 / (d * d)
        for a in nbrs[u]:
            for b in nbrs[u]:
                key = None if a == b else _edge(a, b)
                choices[key] = choices.get(key, 0.0) + p
        per_node_choices.append(list(choices.items()))
    dist: Dict[EdgeSet, float] = {}
    for combo in itertools.product(*per_node_choices):
        prob = 1.0
        added = set()
        for edge, p in combo:
            prob *= p
            if edge is not None:
                added.add(edge)
        new_state = frozenset(state | added)
        dist[new_state] = dist.get(new_state, 0.0) + prob
    return dist


def _pull_round_distribution(n: int, state: EdgeSet) -> Dict[EdgeSet, float]:
    """Distribution over next states after one synchronous two-hop-walk round."""
    nbrs = _neighbors_of_state(n, state)
    per_node_choices: List[List[Tuple[Optional[Tuple[int, int]], float]]] = []
    for u in range(n):
        d = len(nbrs[u])
        if d == 0:
            per_node_choices.append([(None, 1.0)])
            continue
        choices: Dict[Optional[Tuple[int, int]], float] = {}
        for v in nbrs[u]:
            dv = len(nbrs[v])
            for w in nbrs[v]:
                p = (1.0 / d) * (1.0 / dv)
                key = None if w == u else _edge(u, w)
                choices[key] = choices.get(key, 0.0) + p
        per_node_choices.append(list(choices.items()))
    dist: Dict[EdgeSet, float] = {}
    for combo in itertools.product(*per_node_choices):
        prob = 1.0
        added = set()
        for edge, p in combo:
            prob *= p
            if edge is not None:
                added.add(edge)
        new_state = frozenset(state | added)
        dist[new_state] = dist.get(new_state, 0.0) + prob
    return dist


def exact_expected_convergence_time(graph: ArrayGraph, process: str = "push") -> float:
    """Exact expected rounds for the process to reach the complete graph.

    Builds the absorbing Markov chain over all supergraph states reachable
    from ``graph`` and solves ``(I - Q)·t = 1`` for the expected absorption
    times.  Only feasible for very small graphs (the intended use is the
    Figure 1(c) example and similar hand-sized instances).

    Parameters
    ----------
    graph:
        A connected starting graph on at most ~6 nodes.
    process:
        ``"push"`` (triangulation) or ``"pull"`` (two-hop walk).
    """
    if process not in ("push", "pull"):
        raise ValueError(f"process must be 'push' or 'pull', got {process!r}")
    n = graph.n
    if n > 6:
        raise ValueError(
            "exact computation enumerates every joint choice per round and is "
            f"only supported for n <= 6 (got n={n}); use the Monte-Carlo estimator"
        )
    round_dist = _push_round_distribution if process == "push" else _pull_round_distribution
    start = _state_of(graph)
    absorbing = _complete_state(n)

    # Discover the reachable state space (supergraphs of the start state).
    transitions: Dict[EdgeSet, Dict[EdgeSet, float]] = {}
    frontier = [start]
    seen = {start}
    while frontier:
        state = frontier.pop()
        if state == absorbing:
            continue
        dist = round_dist(n, state)
        transitions[state] = dist
        for nxt in dist:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)

    if start == absorbing:
        return 0.0

    transient = sorted(s for s in seen if s != absorbing)
    index = {s: i for i, s in enumerate(transient)}
    size = len(transient)
    q_matrix = np.zeros((size, size))
    for state, dist in transitions.items():
        i = index[state]
        for nxt, p in dist.items():
            if nxt != absorbing:
                q_matrix[i, index[nxt]] += p
    expected = np.linalg.solve(np.eye(size) - q_matrix, np.ones(size))
    return float(expected[index[start]])


def monte_carlo_expected_convergence_time(
    graph: ArrayGraph,
    process: str = "push",
    trials: int = 2000,
    seed: Optional[int] = None,
    max_rounds: int = 100000,
) -> Tuple[float, float]:
    """Monte-Carlo estimate ``(mean, std_error)`` of the expected convergence rounds.

    ``seed`` is required: ``None`` raises ``ValueError``.
    """
    require_seed(seed, "monte_carlo_expected_convergence_time")
    if process not in ("push", "pull"):
        raise ValueError(f"process must be 'push' or 'pull', got {process!r}")
    root = np.random.SeedSequence(seed)
    streams = [np.random.default_rng(c) for c in root.spawn(trials)]
    counts = np.empty(trials, dtype=float)
    for i, rng in enumerate(streams):
        work = graph.copy()
        proc = PushDiscovery(work, rng=rng) if process == "push" else PullDiscovery(work, rng=rng)
        result = proc.run(max_rounds)
        counts[i] = result.rounds
    mean = float(counts.mean())
    sem = float(counts.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return mean, sem


def nonmonotonicity_gap(
    process: str = "push",
) -> Dict[str, float]:
    """Exact expected convergence times demonstrating Figure 1(c)'s non-monotonicity.

    Two comparisons are reported:

    * the paper's 4-edge graph (triangle + pendant edge) versus its 3-edge
      triangle subgraph (``fig1c_*`` keys) — the triangle is already
      complete, so the 4-edge supergraph is strictly slower;
    * a same-node-set pair (``pair_*`` keys): the 4-cycle versus the
      diamond (4-cycle + chord) — the *denser* diamond is strictly slower.

    ``gap`` fields are (denser minus sparser); positive values mean the
    non-monotonicity is reproduced.
    """
    from repro.graphs.generators import (
        fig1c_nonmonotone,
        fig1c_triangle_subgraph,
        nonmonotone_supergraph_pair,
    )

    fig_dense = exact_expected_convergence_time(fig1c_nonmonotone(), process=process)
    fig_sparse = exact_expected_convergence_time(fig1c_triangle_subgraph(), process=process)
    sparser, denser = nonmonotone_supergraph_pair()
    pair_sparse = exact_expected_convergence_time(sparser, process=process)
    pair_dense = exact_expected_convergence_time(denser, process=process)
    return {
        "fig1c_four_edge": fig_dense,
        "fig1c_triangle": fig_sparse,
        "fig1c_gap": fig_dense - fig_sparse,
        "pair_cycle4": pair_sparse,
        "pair_diamond": pair_dense,
        "pair_gap": pair_dense - pair_sparse,
    }
