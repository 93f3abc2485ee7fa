"""Checkpoint overhead and crash-recovery latency.

Prices the crash-tolerance substrate:

* **snapshot overhead** — full Name Dropper convergence runs on a cycle
  (n = 1024) without checkpointing and with ``checkpoint_every=10``,
  timed in alternating pairs (:data:`PAIRS` of them) and compared by
  their medians: one run lasts about 0.15 s, so a best-of-3 ratio is
  mostly host noise.  Name Dropper's payload-heavy rounds
  (neighbor-list gossip) are the realistic case for checkpointing long
  trials, and the overhead budget is < 10% at this cadence — the
  acceptance bar for shipping periodic snapshots by default in sweeps.
  Every pair must converge to identical rounds/edges (checkpointing is
  observationally free).
* **single-snapshot cost** — best-of-reps wall milliseconds for one
  ``save_checkpoint`` of a mid-run process (the marginal cost a caller
  pays per ``checkpoint_every`` rounds), its traced memory peak and the
  bytes it puts on disk.
* **recovery latency** — simulate a mid-run kill by abandoning the
  checkpointed run at its last snapshot, then time (a) ``load_checkpoint``
  + ``restore_process`` (the restart-to-ready gap) and (b) the resumed
  tail run to convergence.  The resumed run must reproduce the
  uninterrupted run's rounds and edge count exactly — recovery is the
  draw-for-draw contract from ``tests/test_checkpoint.py``, just priced.

Results are printed as tables.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.graphs import generators as gen
from repro.simulation.checkpoint import (
    latest_checkpoint,
    load_checkpoint,
    restore_process,
    resume_from_checkpoint,
    save_checkpoint,
)
from repro.simulation.engine import make_process, measure_convergence_rounds

from _bench_helpers import BENCH_SEED, print_table, run_once, trial_count

PROCESS = "name_dropper"
FAMILY = "cycle"
N = 1024
SMOKE_N = 256
CHECKPOINT_EVERY = 10
SNAPSHOT_WARMUP_ROUNDS = 12  # mid-run state for the single-snapshot timing
PAIRS = 7  # alternating clean/checkpointed runs behind each overhead figure


def _fresh_graph(n: int):
    return gen.make_family(FAMILY, n, np.random.default_rng(BENCH_SEED))


def _time_run(n: int, checkpoint_dir=None) -> tuple:
    """Wall seconds, rounds and new edges of one full convergence run."""
    start = time.perf_counter()
    result = measure_convergence_rounds(
        PROCESS,
        _fresh_graph(n),
        rng=np.random.default_rng(BENCH_SEED),
        copy_graph=False,
        checkpoint_every=CHECKPOINT_EVERY if checkpoint_dir else 0,
        checkpoint_dir=checkpoint_dir,
    )
    return time.perf_counter() - start, result.rounds, result.total_edges_added


def _time_pairs(n: int, pairs: int, checkpoint_dir: Path) -> list:
    """One row per mode: median, fastest and slowest of ``pairs`` alternating runs."""
    seconds = {"clean": [], f"checkpoint_every={CHECKPOINT_EVERY}": []}
    for _ in range(pairs):
        clean_s, rounds, edges = _time_run(n)
        timed_s, timed_rounds, timed_edges = _time_run(n, checkpoint_dir)
        # Checkpointing must be observationally free.
        assert (timed_rounds, timed_edges) == (rounds, edges)
        seconds["clean"].append(clean_s)
        seconds[f"checkpoint_every={CHECKPOINT_EVERY}"].append(timed_s)
    return [
        {
            "mode": mode,
            "median_s": statistics.median(times),
            "min_s": min(times),
            "max_s": max(times),
            "rounds": rounds,
            "edges": edges,
        }
        for mode, times in seconds.items()
    ]


def _single_snapshot(n: int, reps: int, out_dir: Path) -> dict:
    """Best-of-``reps`` milliseconds, traced peak and bytes on disk of one mid-run snapshot."""
    process = make_process(PROCESS, _fresh_graph(n), rng=np.random.default_rng(BENCH_SEED))
    process.run(max_rounds=SNAPSHOT_WARMUP_ROUNDS)
    best = float("inf")
    for rep in range(reps):
        start = time.perf_counter()
        save_checkpoint(process, out_dir / f"single_{rep}")
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    try:
        envelope = save_checkpoint(process, out_dir / "traced")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    on_disk = envelope.stat().st_size + envelope.with_suffix(".npz").stat().st_size
    return {"snapshot_ms": best * 1e3, "traced_peak_kb": peak / 1e3, "bytes_on_disk": on_disk}


def _time_recovery(checkpoint_dir: Path, reps: int) -> dict:
    """Restore-to-ready and resumed-tail wall times from the last snapshot."""
    latest = latest_checkpoint(checkpoint_dir)
    restore_ms = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        restore_process(load_checkpoint(latest))
        restore_ms = min(restore_ms, (time.perf_counter() - start) * 1e3)

    start = time.perf_counter()
    result = resume_from_checkpoint(latest)
    resume_seconds = time.perf_counter() - start
    return {
        "resumed_from_round": load_checkpoint(latest).round_index,
        "restore_ms": restore_ms,
        "resume_seconds": resume_seconds,
        "rounds": result.rounds,
        "edges": result.total_edges_added,
    }


def test_checkpoint_overhead_and_recovery(benchmark, smoke, tmp_path):
    """Snapshot overhead vs a clean run, plus crash-recovery latency."""
    n = SMOKE_N if smoke else N
    reps = trial_count(smoke, 3)
    pairs = trial_count(smoke, PAIRS)
    checkpoint_dir = tmp_path / "snapshots"

    def measure():
        base, timed = _time_pairs(n, pairs, checkpoint_dir)
        timed["snapshots"] = len(list(checkpoint_dir.glob("round_*.json")))
        timed["overhead_fraction"] = timed["median_s"] / base["median_s"] - 1.0
        snapshot = _single_snapshot(n, reps, tmp_path / "single")

        recovery = _time_recovery(checkpoint_dir, reps)
        # The resumed run replays the uninterrupted trajectory exactly.
        assert recovery["rounds"] == base["rounds"]
        assert recovery["edges"] == base["edges"]
        return {"runs": [base, timed], "snapshot": snapshot, "recovery": recovery}

    results = run_once(benchmark, measure)
    print_table(
        f"checkpoint overhead ({PROCESS} on {FAMILY}, n={n}, {pairs} alternating pairs)",
        results["runs"],
        ["mode", "median_s", "min_s", "max_s", "rounds", "edges", "snapshots", "overhead_fraction"],
    )
    print_table(
        "crash recovery (resume from last snapshot)",
        [results["recovery"]],
        ["resumed_from_round", "restore_ms", "resume_seconds", "rounds", "edges"],
    )
    print_table(
        f"single snapshot (round {SNAPSHOT_WARMUP_ROUNDS})",
        [results["snapshot"]],
        ["snapshot_ms", "traced_peak_kb", "bytes_on_disk"],
    )

    if smoke:
        return
    overhead = results["runs"][1]["overhead_fraction"]
    assert overhead < 0.10, f"checkpoint overhead {overhead:.1%} exceeds the 10% budget"
