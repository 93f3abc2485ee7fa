"""Perf benchmark of the gossip-discovery simulator: four workloads, one command.

Run every workload on the default seed and print each end-to-end metric
with its unit::

    python benchmarks/perf/run.py [--workload W] [--seed S] [--reps 3] [--trace]

Compare two result files against the bounds in ``BENCHMARK.json``::

    python benchmarks/perf/run.py compare A.json B.json

Each rep runs in a fresh single-threaded child interpreter
(``workloads.py``); this process only launches children one at a time,
checks their outputs and reduces them to medians.  A workload runs
``--reps`` reps, then ``SETUP_SAMPLES`` more children that stop after
set-up, so ``setup_s`` is a median of several set-ups.  ``--trace``
runs rep 0 once untraced and once traced and prints the per-layer
metrics instead.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command exits
1 when any output check fails.

A harness that runs every benchmark the same way may pass ``--seconds``
and ``--trace 0|1``; both are accepted, and ``--seconds`` does not change
the run, whose length the workloads and ``--reps`` fix.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = HERE / "expected.json"
OUT_DIR = HERE / "out"

#: the default workload seed, the one ``expected.json`` pins.
BENCH_SEED = 20120614

#: a rep that runs longer than this is a hang, not a measurement.
CHILD_TIMEOUT_S = 150.0

#: set-up-only children per workload, on top of the reps' own set-ups.
SETUP_SAMPLES = 3

#: seconds ``workloads.reference_s`` takes on the host the baseline in
#: README.md was measured on (median over the 510 parts of ten runs of
#: every workload).  Every time is scaled to a host of that speed:
#: seconds * REFERENCE_S / (the kernel's time around them).
REFERENCE_S = 0.084


class BenchError(RuntimeError):
    """A rep could not be run at all (crashed child, timeout, bad output)."""


# --------------------------------------------------------------------------- #
# running reps
# --------------------------------------------------------------------------- #
def run_child(workload: str, seed: int, rep: int, smoke: bool, flag: Optional[str] = None) -> dict:
    """Run one child (a rep, or with ``flag`` a traced or set-up-only one); return its record."""
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--rep",
        str(rep),
    ]
    if smoke:
        cmd.append("--smoke")
    if flag == "--trace":
        cmd += ["--trace", "--spans", str(OUT_DIR / f"spans-{workload}.jsonl")]
    elif flag is not None:
        cmd.append(flag)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + ([path] if path else [])))
    cmd += ["--started", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} rep {rep} ran past {CHILD_TIMEOUT_S:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} rep {rep} exited with {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(lines[-1])


# --------------------------------------------------------------------------- #
# checks and metrics
# --------------------------------------------------------------------------- #
def _key(outcome: dict) -> list:
    """What ``expected.json`` pins for one trial: ``[label, rounds, edges]``."""
    return [outcome["label"], outcome["rounds"], outcome["edges"]]


def check_records(
    workload: str, records: List[dict], expected: Optional[List[list]]
) -> List[str]:
    """Mark outcomes that break ``expected.json``; return every failure note."""
    notes = []
    for record in records:
        rep = record["rep"]
        pinned = expected[rep] if expected is not None and rep < len(expected) else None
        for i, outcome in enumerate(record["outcomes"]):
            if pinned is not None and (i >= len(pinned) or _key(outcome) != pinned[i]):
                want = pinned[i] if i < len(pinned) else None
                outcome["ok"] = False
                outcome["note"] = f"expected.json has {want}, got {_key(outcome)}"
            if not outcome["ok"]:
                notes.append(f"{workload} rep {rep} {outcome['label']}: {outcome['note']}")
    return notes


def check_repeats(workload: str, records: List[dict]) -> List[str]:
    """Runs of one rep, traced or not, must all give the first run's rounds and edges."""
    notes = []
    first = [_key(o) for o in records[0]["outcomes"]]
    for record in records[1:]:
        if [_key(o) for o in record["outcomes"]] != first:
            kind = "traced" if record["traced"] else "untraced"
            notes.append(f"{workload}: a {kind} run of rep {record['rep']} differs from the first run")
            for o in record["outcomes"]:
                o["ok"] = False
    return notes


def scaled_wall_s(record: dict) -> float:
    """The measured section's seconds on a host whose reference time is ``REFERENCE_S``."""
    return sum(seconds * REFERENCE_S / ref for seconds, ref in record["parts"])


def rep_metrics(record: dict) -> Dict[str, float]:
    """The timing and memory metrics of one untraced rep."""
    outcomes = record["outcomes"]
    wall = scaled_wall_s(record)
    rounds = sum(o["rounds"] for o in outcomes)
    return {
        "wall_s": wall,
        "us_per_round": wall / max(rounds, 1) * 1e6,
        "trials_per_s": len(outcomes) / wall,
        "peak_rss_mb": record["peak_rss_mb"],
        "unscaled_wall_s": record["wall_s"],
    }


def setup_sample(record: dict) -> float:
    """One ``setup_s`` sample, scaled like every other time."""
    return record["setup_s"] * REFERENCE_S / record["setup_ref_s"]


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: dict, untraced: dict) -> Dict[str, float]:
    """Every per-layer value one traced rep yields, keyed by metric name."""
    layers = traced["layers"]
    spans, counters, step = layers["spans"], layers["counters"], layers["step_us"]
    values: Dict[str, float] = dict(counters)
    for name, span in spans.items():
        values[f"{name}.calls"] = span["calls"]
        values[f"{name}.self_s"] = span["self_s"]
    values["graphs.insert_useful_ratio"] = _ratio(
        counters.get("graphs.new_edges", 0), counters.get("graphs.candidate_edges", 0)
    )
    values["core.useful_ratio"] = _ratio(
        counters.get("core.edges_added", 0), counters.get("core.proposals", 0)
    )
    values["network.delivered_ratio"] = _ratio(
        counters.get("network.messages_delivered", 0), counters.get("network.messages_sent", 0)
    )
    values["core.step.p50_us"] = step.get("p50", 0.0)
    values["core.step.p99_us"] = step.get("p99", 0.0)
    phases = [spans[p] for p in ("bench.setup", "bench.measure")]
    values["trace.unattributed_frac"] = _ratio(
        sum(p["self_s"] for p in phases), sum(p["total_s"] for p in phases)
    )
    # Both walls unscaled: the traced child runs no reference kernel.
    values["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    return values


# --------------------------------------------------------------------------- #
# output
# --------------------------------------------------------------------------- #
def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_table(title: str, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    cells = [list(header)] + [[_fmt(c) for c in r] for r in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    print(f"\n== {title} ==")
    for r in cells:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def summarize(
    workload: str, seed: int, records: List[dict], setups: List[dict], units: Dict[str, str]
) -> dict:
    """Samples and quartiles of every end-to-end metric; prints the workload's table.

    ``ok_fraction`` and ``failed_fraction`` are one value per run, over
    every trial the run checked, so a single failed trial shows.
    """
    samples: Dict[str, List[float]] = {}
    for record in records:
        for name, value in rep_metrics(record).items():
            samples.setdefault(name, []).append(value)
    samples["setup_s"] = [setup_sample(r) for r in records + setups]
    outcomes = [o for record in records for o in record["outcomes"]]
    failed = sum(not o["ok"] for o in outcomes)
    samples["ok_fraction"] = [1.0 - _ratio(failed, len(outcomes))]
    samples["failed_fraction"] = [_ratio(failed, len(outcomes))]
    summary = {}
    rows = []
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values)}
        rows.append([name, units[name], med, q1, q3, len(values)])
    print_table(
        f"{workload}  seed {seed}, {len(records)} reps, {len(outcomes)} trials",
        ["metric", "unit", "median", "q1", "q3", "n"],
        rows,
    )
    return {"samples": samples, "summary": summary}


def print_layers(workload: str, layers: Dict[str, float], counters: Dict[str, int]) -> None:
    names = [k[: -len(".self_s")] for k in layers if k.endswith(".self_s")]
    total = sum(layers[f"{n}.self_s"] for n in names)
    rows = [
        [n, layers[f"{n}.calls"], layers[f"{n}.self_s"], f"{100 * layers[f'{n}.self_s'] / total:.1f}%"]
        for n in sorted(names, key=lambda n: -layers[f"{n}.self_s"])
        if layers[f"{n}.calls"]
    ]
    print_table(
        f"{workload} layers  rep 0 traced: "
        f"overhead {100 * layers['trace.overhead_frac']:+.1f}%, "
        f"unattributed {100 * layers['trace.unattributed_frac']:.2f}%",
        ["layer", "calls", "self_s", "share"],
        rows,
    )
    print("counters: " + ", ".join(f"{k}={v}" for k, v in sorted(counters.items())))


def git_sha() -> Optional[str]:
    """The checkout's commit, or ``None`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def manifest(args: argparse.Namespace, results: Dict[str, dict]) -> dict:
    """Who produced these numbers: seed, reps, code version, interpreter, CPUs, layer totals."""
    first = next(iter(results.values()))["records"][0]
    entry = {
        "seed": args.seed,
        "reps": {w: r["reps"] for w, r in results.items()},
        "setup_samples": {w: r["setup_samples"] for w, r in results.items()},
        "reference_s": REFERENCE_S,
        "git_sha": git_sha(),
        "python": first["python"],
        "numpy": first["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "smoke": args.smoke,
        "argv": sys.argv[1:],
    }
    layers = {w: r["layers"] for w, r in results.items() if "layers" in r}
    if layers:
        entry["layers"] = layers
    return entry


# --------------------------------------------------------------------------- #
# commands
# --------------------------------------------------------------------------- #
def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def measure_workload(
    args: argparse.Namespace, workload: str, spec: dict, units: Dict[str, str], expected
) -> tuple:
    """Run and check one workload; return ``(result, metric values, records, failure notes)``.

    Untraced runs yield the end-to-end medians over the reps.  Traced runs
    run rep 0 once untraced and once traced, and yield the per-layer values
    of the traced one.
    """
    traced: List[dict] = []
    setups: List[dict] = []
    if args.trace:
        records = [run_child(workload, args.seed, 0, args.smoke)]
        traced = [run_child(workload, args.seed, 0, args.smoke, "--trace")]
    else:
        records = [run_child(workload, args.seed, rep, args.smoke) for rep in range(args.reps)]
        setups = [
            run_child(workload, args.seed, args.reps + k, args.smoke, "--setup-only")
            for k in range(SETUP_SAMPLES)
        ]
    notes = check_records(workload, records + traced, expected)
    if traced:
        notes += check_repeats(workload, records + traced)
    result = {"reps": len(records), "setup_samples": len(setups), "records": records}
    result.update(summarize(workload, args.seed, records, setups, units))
    if not traced:
        values = {m["name"]: result["summary"][m["name"]]["median"] for m in spec["end_to_end"]}
        return result, values, records, notes
    layers = layer_metrics(traced[0], records[0])
    print_layers(workload, layers, traced[0]["layers"]["counters"])
    result["layers"] = layers
    values = {m["name"]: layers.get(m["name"], 0) for m in spec["per_layer"]}
    return result, values, records + traced, notes


def cmd_run(args: argparse.Namespace, spec: dict) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # Before numpy loads, here and (inherited) in every child: one thread each.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # The build: byte-compile once, so no child's setup_s pays for compiling
    # (imports never write bytecode under PYTHONDONTWRITEBYTECODE).
    for directory in (SRC, HERE):
        compileall.compile_dir(str(directory), quiet=1)
    sys.path.insert(0, str(SRC))
    from repro.simulation.io import atomic_write_text

    selected = [w["name"] for w in spec["workloads"]] if args.workload is None else [args.workload]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(failed_fraction="ratio", unscaled_wall_s="s")
    expected_all = json.loads(EXPECTED_PATH.read_text())
    use_expected = args.seed == BENCH_SEED and not args.smoke

    results: Dict[str, dict] = {}
    metrics: Dict[str, Dict[str, object]] = {}
    attempted = failed = 0
    notes: List[str] = []
    for workload in selected:
        expected = expected_all.get(workload) if use_expected else None
        result, values, checked, found = measure_workload(args, workload, spec, units, expected)
        results[workload] = result
        notes += found
        prefix = "" if args.workload is not None else f"{workload}."
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})
        outcomes = [o for record in checked for o in record["outcomes"]]
        attempted += len(outcomes)
        failed += sum(not o["ok"] for o in outcomes)

    out = {"manifest": manifest(args, results), "workloads": results}
    atomic_write_text(args.out, json.dumps(out, indent=1) + "\n")
    for note in notes:
        print(f"FAILED {note}", file=sys.stderr)
    print(f"\nresults: {args.out}")
    correct = failed == 0 and not notes
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def judge(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> tuple:
    """``(verdict, change)`` for B against A; ``change`` > 0 means B is worse."""
    qa, qb = quartiles(a), quartiles(b)
    ma, mb = qa[1], qb[1]
    change = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
    spread = max((qa[2] - qa[0]) / ma, (qb[2] - qb[0]) / mb)
    b_wins = max(b) < min(a) if better == "lower" else min(b) > max(a)
    if spread > bound:
        return ("ok" if b_wins else "unresolved"), change
    return ("regressed" if change > bound else "ok"), change


def cmd_compare(paths: Sequence[str]) -> int:
    spec = load_spec()
    a, b = (json.loads(Path(p).read_text())["workloads"] for p in paths)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a or workload not in b:
            continue
        for m in spec["end_to_end"]:
            sa, sb = a[workload]["samples"][m["name"]], b[workload]["samples"][m["name"]]
            verdict, change = judge(sa, sb, m["better"], m["bound"])
            qa, qb = quartiles(sa), quartiles(sb)
            rows.append(
                [
                    workload,
                    m["name"],
                    m["unit"],
                    qa[1],
                    f"[{qa[0]:.4g}, {qa[2]:.4g}]",
                    qb[1],
                    f"[{qb[0]:.4g}, {qb[2]:.4g}]",
                    f"{100 * change:+.1f}%",
                    f"{100 * m['bound']:g}%",
                    verdict,
                ]
            )
    print_table(
        f"compare  A={paths[0]}  B={paths[1]}",
        ["workload", "metric", "unit", "A", "A q1-q3", "B", "B q1-q3", "worse", "bound", "verdict"],
        rows,
    )
    return 0 if rows and all(r[-1] == "ok" for r in rows) else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare", description="B against A, per bound")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return cmd_compare([args.a, args.b])
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=BENCH_SEED)
    parser.add_argument("--reps", type=int, default=3, help="reps per workload")
    parser.add_argument("--seconds", type=float, help="accepted; the run length is fixed")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="alternate untraced and traced runs of rep 0; print per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (smoke test)")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "result.json", help="result file")
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; known: {names}")
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    try:
        return cmd_run(args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps the running rep.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
