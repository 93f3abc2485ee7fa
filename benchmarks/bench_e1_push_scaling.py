"""E1 — Theorem 8: push (triangulation) upper bound O(n log² n) on undirected graphs.

Regenerates the convergence-round scaling series for the push process over
several graph families and reports the fitted growth law plus the
rounds / (n ln² n) ratios that must stay bounded.

``--smoke`` shrinks everything to one tiny configuration for CI.
"""

from __future__ import annotations

import pytest

from repro.analysis.scaling import measure_scaling
from repro.simulation import bounds, stats

from _bench_helpers import BENCH_SEED, print_table, run_once

SIZES = [16, 32, 64, 96]
SMOKE_SIZES = [8, 12]
FAMILIES = ["cycle", "path", "star", "erdos_renyi", "barabasi_albert"]


@pytest.mark.parametrize("family", FAMILIES)
def test_e1_push_scaling(benchmark, family, smoke):
    """Push convergence rounds vs n for one family, with the Theorem-8 fit."""
    sizes = SMOKE_SIZES if smoke else SIZES
    trials = 1 if smoke else 3
    measurement = run_once(
        benchmark,
        measure_scaling,
        "push",
        family,
        sizes=sizes,
        trials=trials,
        seed=BENCH_SEED,
        poly_exponent=1.0,
    )
    print_table(f"E1 push scaling on {family}", measurement.as_rows())
    fit = measurement.power_log_fit
    print(
        f"fit: rounds ~ {fit.coefficient:.3g} * n * (ln n)^{fit.log_exponent:.2f} "
        f"(R^2={fit.r_squared:.3f}); pure power-law exponent "
        f"{measurement.power_fit.exponent:.2f}"
    )
    if smoke:
        return  # tiny sizes cannot support the asymptotic shape assertions
    # Shape assertions (paper: between n log n and n log^2 n).
    ok, info = stats.bounded_ratio(
        sizes, measurement.mean_rounds, bounds.n_log2_n, spread_tolerance=10.0
    )
    assert ok, f"rounds drifted away from the n log^2 n shape: {info}"
    assert 0.9 < measurement.power_fit.exponent < 2.0

