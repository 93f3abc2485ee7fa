"""Minimum-degree growth phases (experiment E8).

The engine of both undirected upper-bound proofs (Theorems 8 and 12) is:
*in O(n log n) rounds the minimum degree grows by a constant factor (the
paper uses 9/8 or 13/12) or the graph becomes complete*.  Applying that
O(log n) times gives the O(n log² n) bound.  This module measures the
phase structure empirically: it runs a process with a
:class:`~repro.core.metrics.MetricsRecorder`, reads the round at which the
minimum degree first reaches each threshold ``δ_0 · γ^i`` off the
recorder's minimum-degree column, and reports the phase lengths
normalised by ``n ln n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.core.metrics import MetricsRecorder
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
    recorder = MetricsRecorder()
    make_process(process, work, rng=rng).run_to_convergence(
        max_rounds=max_rounds, callbacks=[recorder]
    )
    # The column never falls, so each threshold's first round is a binary search.
    series = recorder.min_degree_series()
    hits = np.searchsorted(series, thresholds, side="left")

    phases: List[DegreePhase] = []
    log_n = max(float(np.log(n)), 1.0)
    prev_round = 0
    for i, (threshold, hit) in enumerate(zip(thresholds, hits.tolist())):
        if hit == series.shape[0]:
            break
        end_round = hit + 1
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
