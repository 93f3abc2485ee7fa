"""Minimum-degree growth phases (experiment E8).

The engine of both undirected upper-bound proofs (Theorems 8 and 12) is:
*in O(n log n) rounds the minimum degree grows by a constant factor (the
paper uses 9/8 or 13/12) or the graph becomes complete*.  Applying that
O(log n) times gives the O(n log² n) bound.  This module measures the
phase structure empirically: it runs a process, records the round at which
the minimum degree first reaches each threshold ``δ_0 · γ^i``, and reports
the phase lengths normalised by ``n ln n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.base import DiscoveryProcess, RoundResult
from repro.graphs.array_adjacency import ArrayGraph
from repro.simulation.engine import make_process

__all__ = ["DegreePhase", "measure_degree_growth_phases"]


@dataclass(frozen=True)
class DegreePhase:
    """One growth phase of the minimum degree.

    Attributes
    ----------
    phase_index:
        Zero-based index of the phase.
    threshold:
        The minimum-degree target of this phase (``δ_0 · γ^(i+1)``, capped
        at ``n - 1``).
    start_round, end_round:
        Rounds at which the phase began and at which the threshold was
        first met.
    length:
        ``end_round - start_round``.
    normalized_length:
        ``length / (n · ln n)`` — the quantity the proofs bound by a
        constant.
    """

    phase_index: int
    threshold: int
    start_round: int
    end_round: int
    length: int
    normalized_length: float


class _MinDegreeWatcher:
    """Run-loop callback that records when each degree threshold is first met."""

    def __init__(self, thresholds: Sequence[int]) -> None:
        self.thresholds = list(thresholds)
        self.hit_round: Dict[int, int] = {}

    def __call__(self, process: DiscoveryProcess, result: RoundResult) -> None:
        cached = getattr(process, "cached_min_degree", None)
        current = cached() if cached is not None else process.graph.min_degree()
        for threshold in self.thresholds:
            if threshold not in self.hit_round and current >= threshold:
                self.hit_round[threshold] = result.round_index + 1


def measure_degree_growth_phases(
    graph: ArrayGraph,
    process: str = "push",
    growth_factor: float = 9.0 / 8.0,
    rng: Union[np.random.Generator, int, None] = None,
    max_rounds: Optional[int] = None,
) -> List[DegreePhase]:
    """Measure how long each constant-factor minimum-degree growth phase takes.

    Parameters
    ----------
    graph:
        Connected starting graph (a private copy is mutated).
    process:
        ``"push"`` or ``"pull"``.
    growth_factor:
        The per-phase multiplicative target γ (the paper's analysis uses
        γ = 9/8; any γ > 1 produces a valid phase decomposition).
    """
    if growth_factor <= 1.0:
        raise ValueError("growth_factor must exceed 1")
    work = graph.copy()
    n = work.n
    delta0 = max(1, work.min_degree())
    # Build the ladder of thresholds δ0·γ, δ0·γ², ..., capped at n - 1.
    thresholds: List[int] = []
    target = float(delta0)
    while True:
        target *= growth_factor
        threshold = min(int(np.ceil(target)), n - 1)
        if thresholds and threshold <= thresholds[-1]:
            threshold = thresholds[-1] + 1
        if threshold >= n - 1:
            thresholds.append(n - 1)
            break
        thresholds.append(threshold)
    watcher = _MinDegreeWatcher(thresholds)
    proc = make_process(process, work, rng=rng)
    proc.run_to_convergence(max_rounds=max_rounds, callbacks=[watcher])

    phases: List[DegreePhase] = []
    log_n = max(float(np.log(n)), 1.0)
    prev_round = 0
    for i, threshold in enumerate(thresholds):
        if threshold not in watcher.hit_round:
            break
        end_round = watcher.hit_round[threshold]
        length = end_round - prev_round
        phases.append(
            DegreePhase(
                phase_index=i,
                threshold=threshold,
                start_round=prev_round,
                end_round=end_round,
                length=length,
                normalized_length=length / (n * log_n),
            )
        )
        prev_round = end_round
    return phases
