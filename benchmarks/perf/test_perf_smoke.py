"""Smoke test of the perf benchmark: every workload at tiny n, untraced and traced.

Runs in the ``pytest benchmarks/ --smoke`` pass in a few seconds; the
workloads always run at their tiny sizes here, whatever the flag.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import run
import spans
import workloads

SPEC = json.loads(run.SPEC_PATH.read_text())


def _keys(record: dict) -> list:
    return [run._key(o) for o in record["outcomes"]]


def _leftover_wrappers() -> list:
    """Names in ``repro`` modules (and their classes) still bound to a tracer wrapper."""
    found = []
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            members = vars(value).items() if isinstance(value, type) else ()
            for name, member in [(attr, value), *((f"{attr}.{k}", v) for k, v in members)]:
                if hasattr(member, spans.TRACED_ATTR):
                    found.append(f"{modname}.{name}")
    return found


def test_workloads_match_benchmark_json() -> None:
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_traced_reps_reproduce_untraced_and_unwrap() -> None:
    produced = set()
    for name in workloads.WORKLOADS:
        plain = workloads.execute(name, run.BENCH_SEED, 0, smoke=True)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = workloads.execute(name, run.BENCH_SEED, 0, smoke=True, tracer=tracer)
        finally:
            tracer.uninstall()
        assert _keys(traced) == _keys(plain), name
        assert all(o["ok"] for o in plain["outcomes"] + traced["outcomes"]), name
        # The untraced wall is its parts; each part has a positive reference time.
        assert plain["wall_s"] == sum(s for s, _ in plain["parts"]), name
        assert all(ref > 0 for _, ref in plain["parts"]), name
        traced["layers"] = tracer.layers()
        produced |= set(run.layer_metrics(traced, plain))
    assert _leftover_wrappers() == []
    missing = {m["name"] for m in SPEC["per_layer"]} - produced
    assert not missing, f"per-layer metrics no workload produces: {sorted(missing)}"


def _cli(*args: str) -> tuple:
    """Run ``run.py --smoke`` with ``args``; return its stdout and parsed last line."""
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--smoke", "--reps", "1", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    return proc.stdout, last


def _table_rows(stdout: str, metric: dict) -> int:
    return len(re.findall(rf"^{re.escape(metric['name'])}\s+{re.escape(metric['unit'])}\s", stdout, re.M))


def test_cli_prints_every_metric_with_its_unit(tmp_path: Path, capsys) -> None:
    out = tmp_path / "result.json"
    # The form a harness uses: --seconds and an explicit --trace 0 change nothing.
    stdout, last = _cli("--seconds", "1", "--trace", "0", "--out", str(out))
    for w in SPEC["workloads"]:
        for m in SPEC["end_to_end"]:
            assert last["metrics"][f"{w['name']}.{m['name']}"]["unit"] == m["unit"]
    for m in SPEC["end_to_end"]:
        assert _table_rows(stdout, m) == len(SPEC["workloads"]), m["name"]

    # A run compared with itself has no regression; a row whose reps spread
    # wider than its bound is unresolved, never ok by default.
    run.main(["compare", str(out), str(out)])
    names = tuple(w["name"] for w in SPEC["workloads"])
    rows = [r.split() for r in capsys.readouterr().out.splitlines() if r.startswith(names)]
    assert len(rows) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    assert {r[-1] for r in rows} <= {"ok", "unresolved"}

    # One traced workload is enough here: the in-process test covers the rest.
    stdout, last = _cli("--trace", "--workload", "push_n1024", "--out", str(tmp_path / "t.json"))
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    for m in SPEC["end_to_end"]:
        assert _table_rows(stdout, m) == 1, m["name"]
