"""E2 — Theorem 12: pull (two-hop walk) upper bound O(n log² n) on undirected graphs.

Same sweep as E1 but for the pull process, plus a head-to-head push-vs-pull
series on the cycle family (the paper proves the same bound for both).
``--smoke`` shrinks the sweep for CI.
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
def test_e2_pull_scaling(benchmark, family, smoke):
    """Pull convergence rounds vs n for one family, with the Theorem-12 fit."""
    sizes = SMOKE_SIZES if smoke else SIZES
    trials = 1 if smoke else 3
    measurement = run_once(
        benchmark,
        measure_scaling,
        "pull",
        family,
        sizes=sizes,
        trials=trials,
        seed=BENCH_SEED,
        poly_exponent=1.0,
    )
    print_table(f"E2 pull scaling on {family}", measurement.as_rows())
    fit = measurement.power_log_fit
    print(
        f"fit: rounds ~ {fit.coefficient:.3g} * n * (ln n)^{fit.log_exponent:.2f} "
        f"(R^2={fit.r_squared:.3f}); pure power-law exponent "
        f"{measurement.power_fit.exponent:.2f}"
    )
    if smoke:
        return  # tiny sizes cannot support the asymptotic shape assertions
    ok, info = stats.bounded_ratio(
        sizes, measurement.mean_rounds, bounds.n_log2_n, spread_tolerance=10.0
    )
    assert ok, f"rounds drifted away from the n log^2 n shape: {info}"
    assert 0.9 < measurement.power_fit.exponent < 2.0


def test_e2_push_vs_pull_same_bound(benchmark, smoke):
    """Push and pull stay within a small constant factor of each other (same theorem shape)."""
    sizes = SMOKE_SIZES if smoke else SIZES
    trials = 1 if smoke else 3

    def measure_both():
        push = measure_scaling("push", "cycle", sizes=sizes, trials=trials, seed=BENCH_SEED)
        pull = measure_scaling("pull", "cycle", sizes=sizes, trials=trials, seed=BENCH_SEED)
        return push, pull

    push, pull = run_once(benchmark, measure_both)
    rows = [
        {
            "n": n,
            "push_rounds": pm,
            "pull_rounds": lm,
            "pull/push": lm / pm,
        }
        for n, pm, lm in zip(sizes, push.mean_rounds, pull.mean_rounds)
    ]
    print_table("E2 push vs pull on cycles [array]", rows)
    if smoke:
        return
    assert all(0.2 < r["pull/push"] < 5.0 for r in rows)
