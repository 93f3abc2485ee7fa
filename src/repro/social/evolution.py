"""Social-network evolution under the discovery processes (experiment E12).

The paper's Applications section argues that analysing these processes
helps predict how decentralised social networks grow: the sizes of 1st,
2nd and 3rd degree neighbourhoods (the numbers LinkedIn shows every user),
the shrinking diameter, and the rising clustering as triangulation closes
triangles.  This module runs a process on a synthetic social graph and
records those quantities at a configurable cadence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.base import DiscoveryProcess, RoundResult
from repro.graphs.array_adjacency import ArrayGraph
from repro.graphs import properties
from repro.simulation.engine import make_process
from repro.simulation.rng import require_seed, spawn_rngs

__all__ = ["EvolutionSnapshot", "EvolutionTracker", "simulate_social_evolution"]


@dataclass(frozen=True)
class EvolutionSnapshot:
    """Network statistics at one point in time."""

    round_index: int
    num_edges: int
    mean_degree: float
    min_degree: int
    diameter: Optional[int]
    average_clustering: float
    mean_second_degree: float
    mean_third_degree: float


class EvolutionTracker:
    """Run-loop callback recording social-evolution statistics every ``every`` rounds.

    Second/third-degree neighbourhood sizes are averaged over a fixed
    random sample of ``probe_nodes`` nodes so the cost per snapshot stays
    O(probe_nodes · m) rather than O(n · m).
    """

    def __init__(
        self,
        every: int = 10,
        probe_nodes: int = 16,
        rng: Union[np.random.Generator, int, None] = None,
        compute_diameter: bool = True,
    ) -> None:
        if every < 1:
            raise ValueError("snapshot period must be >= 1")
        self.every = every
        self.probe_nodes = probe_nodes
        self.compute_diameter = compute_diameter
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.snapshots: List[EvolutionSnapshot] = []
        self._probes: Optional[List[int]] = None

    def _ensure_probes(self, graph: ArrayGraph) -> List[int]:
        if self._probes is None:
            count = min(self.probe_nodes, graph.n)
            self._probes = self.rng.choice(graph.n, size=count, replace=False).tolist()
        return self._probes

    def snapshot(self, graph: ArrayGraph, round_index: int) -> EvolutionSnapshot:
        """Take one snapshot of ``graph`` (also used for the round-0 baseline)."""
        probes = self._ensure_probes(graph)
        second_sizes = []
        third_sizes = []
        for u in probes:
            dist = properties.bfs_distances(graph, u)
            second_sizes.append(int(np.sum(dist == 2)))
            third_sizes.append(int(np.sum(dist == 3)))
        diameter: Optional[int] = None
        if self.compute_diameter and properties.is_connected(graph):
            diameter = properties.diameter(graph)
        degrees = graph.degrees()
        return EvolutionSnapshot(
            round_index=round_index,
            num_edges=graph.number_of_edges(),
            mean_degree=float(degrees.mean()) if graph.n else 0.0,
            min_degree=int(degrees.min()) if graph.n else 0,
            diameter=diameter,
            average_clustering=properties.average_clustering(graph),
            mean_second_degree=float(np.mean(second_sizes)) if second_sizes else 0.0,
            mean_third_degree=float(np.mean(third_sizes)) if third_sizes else 0.0,
        )

    def __call__(self, process: DiscoveryProcess, result: RoundResult) -> None:
        if result.round_index % self.every != 0:
            return
        graph = process.graph
        # Snapshots describe an undirected social graph; a directed run records none.
        if graph.directed:
            return
        self.snapshots.append(self.snapshot(graph, result.round_index + 1))

    def as_rows(self) -> List[Dict[str, float]]:
        """The snapshots as a list of plain dicts (one row per snapshot)."""
        rows = []
        for s in self.snapshots:
            rows.append(
                {
                    "round": s.round_index,
                    "edges": s.num_edges,
                    "mean_degree": s.mean_degree,
                    "min_degree": s.min_degree,
                    "diameter": -1 if s.diameter is None else s.diameter,
                    "clustering": s.average_clustering,
                    "second_degree": s.mean_second_degree,
                    "third_degree": s.mean_third_degree,
                }
            )
        return rows


def simulate_social_evolution(
    graph: ArrayGraph,
    process: str = "push",
    rounds: int = 200,
    every: int = 10,
    seed: Optional[int] = None,
    probe_nodes: int = 16,
) -> List[EvolutionSnapshot]:
    """Run ``process`` on a copy of ``graph`` for ``rounds`` rounds, returning snapshots.

    The round-0 snapshot of the untouched starting graph is always included
    first so growth can be expressed relative to the initial network.
    ``seed`` is required: ``None`` raises ``ValueError``.  The process
    draws from ``default_rng(seed)`` and the tracker's probe sample from a
    stream spawned off ``seed``, so the two never share bits.
    """
    require_seed(seed, "simulate_social_evolution")
    work = graph.copy()
    tracker = EvolutionTracker(every=every, probe_nodes=probe_nodes, rng=spawn_rngs(seed, 1)[0])
    baseline = tracker.snapshot(work, 0)
    proc = make_process(process, work, rng=seed)
    proc.run(rounds, callbacks=[tracker])
    return [baseline] + tracker.snapshots
