"""Empirical lower-bound shape checks (experiments E3, E6, E7).

Each check runs a process on the relevant lower-bound instance family over
a range of sizes, and verifies that the measured convergence rounds divided
by the theoretical lower-bound curve stay *bounded below* (do not decay
towards zero as ``n`` grows) — the empirical signature of the Ω(·) claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.simulation.engine import measure_convergence_rounds
from repro.simulation.rng import require_seed, spawn_rngs
from repro.simulation import stats

__all__ = ["LowerBoundCheck", "lower_bound_ratio_check"]


@dataclass
class LowerBoundCheck:
    """Result of one lower-bound shape check.

    Attributes
    ----------
    sizes:
        The swept instance sizes.
    mean_rounds:
        Mean convergence rounds per size.
    ratios:
        ``mean_rounds / bound(size)`` per size.
    non_vanishing:
        True when the final ratio is at least ``min_fraction_of_first``
        times the first ratio — i.e. the ratio does not collapse as the
        size grows, consistent with the Ω(·) claim.
    power_fit_exponent:
        Fitted pure power-law exponent of the measured times (useful to
        compare against the bound's polynomial degree).
    """

    sizes: List[int]
    mean_rounds: List[float]
    ratios: List[float]
    non_vanishing: bool
    power_fit_exponent: float


def lower_bound_ratio_check(
    process: str,
    instance_factory: Callable[[int], object],
    sizes: Sequence[int],
    bound: Callable[[float], float],
    trials: int = 3,
    seed: Optional[int] = None,
    min_fraction_of_first: float = 0.3,
    max_rounds: Optional[int] = None,
    process_kwargs: Optional[Dict] = None,
) -> LowerBoundCheck:
    """Run ``process`` on ``instance_factory(n)`` across sizes and check the Ω-shape.

    Parameters
    ----------
    process:
        Registry name of the process.
    instance_factory:
        Maps a size to a starting graph (undirected or directed).
    sizes:
        Instance sizes to sweep (at least two).
    bound:
        The theoretical lower-bound curve, e.g.
        :func:`repro.simulation.bounds.n_log_n`.
    seed:
        Root seed (size ``i`` uses ``seed + i``); required (``None`` raises
        ``ValueError``).
    min_fraction_of_first:
        Tolerance for the non-vanishing check: the last ratio must be at
        least this fraction of the first ratio.
    """
    require_seed(seed, "lower_bound_ratio_check")
    if len(sizes) < 2:
        raise ValueError("lower-bound check needs at least two sizes")
    mean_rounds: List[float] = []
    for idx, n in enumerate(sizes):
        rngs = spawn_rngs(seed + idx, trials)
        rounds = []
        for rng in rngs:
            graph = instance_factory(int(n))
            result = measure_convergence_rounds(
                process,
                graph,
                rng=rng,
                max_rounds=max_rounds,
                copy_graph=False,
                **(process_kwargs or {}),
            )
            rounds.append(result.rounds)
        mean_rounds.append(float(np.mean(rounds)))
    ratios = stats.ratio_series(list(sizes), mean_rounds, bound).tolist()
    non_vanishing = ratios[-1] >= min_fraction_of_first * ratios[0]
    exponent = stats.fit_power_law(list(sizes), mean_rounds).exponent
    return LowerBoundCheck(
        sizes=[int(n) for n in sizes],
        mean_rounds=mean_rounds,
        ratios=ratios,
        non_vanishing=non_vanishing,
        power_fit_exponent=exponent,
    )
