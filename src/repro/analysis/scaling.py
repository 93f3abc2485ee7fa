"""Convergence-time scaling measurements and fits (experiments E1, E2, E5).

:func:`measure_scaling` sweeps a process over a graph family at a list of
sizes, averages the convergence rounds over trials, and fits both a pure
power law ``T(n) = c·n^a`` and the theorem-shaped law
``T(n) = c·n^p·(ln n)^b`` with the polynomial exponent ``p`` fixed by the
theorem under test (1 for the undirected bounds, 2 for the directed ones).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.simulation.experiment import ExperimentSpec
from repro.simulation.rng import require_seed
from repro.simulation.runner import run_trials, summarize_trials
from repro.simulation import stats

__all__ = ["ScalingMeasurement", "measure_scaling"]


@dataclass
class ScalingMeasurement:
    """The outcome of one scaling sweep.

    Attributes
    ----------
    process, family:
        What was measured.
    sizes:
        The swept graph sizes.
    mean_rounds, std_rounds:
        Convergence-round statistics per size (over trials).
    power_fit:
        Fitted pure power law ``T = c·n^a``.
    power_log_fit:
        Fitted ``T = c·n^p·(ln n)^b`` with the requested fixed ``p``.
    per_size:
        Full summary rows (one per size) as produced by the runner.
    """

    process: str
    family: str
    sizes: List[int]
    mean_rounds: List[float]
    std_rounds: List[float]
    power_fit: stats.PowerLawFit
    power_log_fit: stats.PowerLogLawFit
    per_size: List[Dict[str, float]] = field(default_factory=list)

    def normalized_by(self, bound: Callable[[float], float]) -> np.ndarray:
        """Measured mean rounds divided by ``bound(n)`` at every size."""
        return stats.ratio_series(self.sizes, self.mean_rounds, bound)

    def as_rows(self) -> List[Dict[str, float]]:
        """Row dicts suitable for printing as a results table."""
        rows = []
        for n, mean, std in zip(self.sizes, self.mean_rounds, self.std_rounds):
            rows.append(
                {
                    "process": self.process,
                    "family": self.family,
                    "n": n,
                    "rounds_mean": mean,
                    "rounds_std": std,
                    "rounds_over_n_log_n": mean / (n * max(np.log(n), 1e-9)),
                    "rounds_over_n_log2_n": mean / (n * max(np.log(n), 1e-9) ** 2),
                }
            )
        return rows


def measure_scaling(
    process: str,
    family: str,
    sizes: Sequence[int],
    trials: int = 5,
    seed: Optional[int] = None,
    directed: bool = False,
    poly_exponent: float = 1.0,
    max_rounds: Optional[int] = None,
    process_kwargs: Optional[Dict] = None,
) -> ScalingMeasurement:
    """Sweep ``process`` over ``family`` at the given sizes and fit growth laws.

    Parameters
    ----------
    process:
        Registry name (``"push"``, ``"pull"``, ``"directed_pull"``, ...).
    family:
        Registered (directed) graph family name.
    sizes:
        Graph sizes to sweep; at least two distinct sizes are required for
        the fits.
    trials:
        Independent trials per size.
    seed:
        Root seed for the whole sweep; required (``None`` raises
        ``ValueError``).
    directed:
        Whether ``family`` is in the directed registry.
    poly_exponent:
        Fixed polynomial exponent for the theorem-shaped fit.
    """
    require_seed(seed, "measure_scaling")
    if len(sizes) < 2:
        raise ValueError("scaling measurement needs at least two sizes")
    mean_rounds: List[float] = []
    std_rounds: List[float] = []
    per_size: List[Dict[str, float]] = []
    for n in sizes:
        spec = ExperimentSpec(
            process=process,
            family=family,
            n=int(n),
            trials=trials,
            directed=directed,
            process_kwargs=dict(process_kwargs or {}),
            max_rounds=max_rounds,
        )
        trials_out = run_trials(spec, root_seed=seed)
        summary = summarize_trials(trials_out)
        mean_rounds.append(summary["rounds_mean"])
        std_rounds.append(summary["rounds_std"])
        per_size.append(summary)
    power_fit = stats.fit_power_law(list(sizes), mean_rounds)
    power_log_fit = stats.fit_power_log_law(list(sizes), mean_rounds, poly_exponent=poly_exponent)
    return ScalingMeasurement(
        process=process,
        family=family,
        sizes=[int(n) for n in sizes],
        mean_rounds=mean_rounds,
        std_rounds=std_rounds,
        power_fit=power_fit,
        power_log_fit=power_log_fit,
        per_size=per_size,
    )
