"""E5 — Theorem 14 (upper bound): directed two-hop walk terminates in O(n² log n).

Sweeps the directed two-hop walk over strongly connected digraph families
and fits the growth law with the polynomial exponent fixed at 2.
``--smoke`` shrinks the sweep for CI.
"""

from __future__ import annotations

import pytest

from repro.analysis.scaling import measure_scaling
from repro.simulation import bounds, stats

from _bench_helpers import BENCH_SEED, print_table, run_once

SIZES = [8, 12, 16, 24]
SMOKE_SIZES = [6, 8]
FAMILIES = ["directed_cycle", "random_strong", "bidirected_path"]


@pytest.mark.parametrize("family", FAMILIES)
def test_e5_directed_scaling(benchmark, family, smoke):
    """Directed two-hop walk rounds vs n, checked against the n² log n envelope."""
    sizes = SMOKE_SIZES if smoke else SIZES
    trials = 1 if smoke else 3
    measurement = run_once(
        benchmark,
        measure_scaling,
        "directed_pull",
        family,
        sizes=sizes,
        trials=trials,
        seed=BENCH_SEED,
        directed=True,
        poly_exponent=2.0,
    )
    rows = [
        {
            "n": n,
            "rounds_mean": mean,
            "rounds/(n^2 ln n)": mean / bounds.n_squared_log_n(n),
            "rounds/(n ln^2 n)": mean / bounds.n_log2_n(n),
        }
        for n, mean in zip(sizes, measurement.mean_rounds)
    ]
    print_table(f"E5 directed two-hop walk on {family}", rows)
    print(f"pure power-law exponent: {measurement.power_fit.exponent:.2f}")
    if smoke:
        return  # tiny sizes cannot support the asymptotic shape assertions
    # Upper-bound shape: the rounds never exceed a small constant times n^2 log n.
    ratios = measurement.normalized_by(bounds.n_squared_log_n)
    assert (ratios < 5.0).all()
    assert measurement.power_fit.exponent > 0.5
