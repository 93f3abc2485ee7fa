"""Shared helpers for the benchmark harness.

Every ``bench_e*`` benchmark regenerates one of the experiments E1…E13
and prints the rows/series it measures.  The
``benchmark`` fixture from pytest-benchmark times the measurement itself;
each measurement runs exactly once per benchmark (``pedantic`` with one
round) because the workloads are stochastic simulations, not microkernels.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

#: root seed shared by every benchmark so every printed table is regenerable bit-for-bit.
BENCH_SEED = 20120614


def print_table(
    title: str, rows: Sequence[Dict[str, object]], columns: Optional[List[str]] = None
) -> None:
    """Print an aligned results table under a banner (captured with ``-s`` / on failure)."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    if columns is None:
        columns = list(rows[0].keys())
    formatted = [[str(c) for c in columns]]
    for row in rows:
        cells = []
        for c in columns:
            value = row.get(c, "")
            cells.append(f"{value:.4g}" if isinstance(value, float) else str(value))
        formatted.append(cells)
    widths = [max(len(r[i]) for r in formatted) for i in range(len(columns))]
    for r in formatted:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def trial_count(smoke: bool, full: int, smoke_cap: int = 1) -> int:
    """Trials for one measurement: ``full`` normally, capped under ``--smoke``.

    Every benchmark that averages over repeated seeded runs must route its
    trial count through here so the CI smoke pass stays seconds-sized.
    """
    return min(full, smoke_cap) if smoke else full
