"""E10 — baselines: rounds vs per-round bandwidth against Name Dropper / Pointer Jump / flooding.

The paper positions the gossip processes as the O(log n)-bits-per-message
alternative to prior discovery algorithms that finish in polylog rounds but
ship Θ(n)-size messages.  This benchmark regenerates that trade-off table:
for each algorithm, the convergence rounds, the total bits, and the peak
per-node per-round bit budget — on both graph backends, now that the
baselines run on the packed bitset substrate (PR 3).

``test_e10_backend_shootout`` times one baseline round per backend at the
largest n on an identical mid-density state: the packed flooding round
(one pass of row unions) must beat the list-backend triple loop by ≥5×
at n=1024.  Full-size results are written to ``BENCH_PR3.json`` at the
repo root (skipped under ``--smoke`` so CI never overwrites the recorded
snapshot).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.flooding import NeighborhoodFlooding
from repro.baselines.name_dropper import NameDropper
from repro.baselines.pointer_jump import RandomPointerJump
from repro.graphs import generators as gen
from repro.graphs.array_adjacency import ArrayGraph
from repro.network import NetworkSimulator
from repro.network.message import id_bits_for
from repro.simulation.engine import measure_convergence_rounds
from repro.simulation.io import atomic_write_text

from _bench_helpers import BENCH_SEED, print_table, run_once, trial_count

N = 64
ALGORITHMS = ["push", "pull", "name_dropper", "pointer_jump", "flooding"]

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR3.json"

SHOOTOUT_PROCESSES = [
    ("flooding", NeighborhoodFlooding),
    ("name_dropper", NameDropper),
    ("pointer_jump", RandomPointerJump),
]


@pytest.mark.parametrize("backend", ["list", "array"])
def test_e10_rounds_vs_bits_tradeoff(benchmark, smoke, backend):
    """Rounds and message-bit totals for every algorithm on the same starting graph."""

    n = 16 if smoke else N

    def measure():
        rows = []
        for name in ALGORITHMS:
            trials = []
            for t in range(trial_count(smoke, 3)):
                graph = gen.cycle_graph(n)
                result = measure_convergence_rounds(
                    name, graph, rng=BENCH_SEED + t, copy_graph=False, backend=backend
                )
                trials.append((result.rounds, result.total_bits, result.total_messages))
            rounds = float(np.mean([t[0] for t in trials]))
            bits = float(np.mean([t[1] for t in trials]))
            msgs = float(np.mean([t[2] for t in trials]))
            rows.append(
                {
                    "algorithm": name,
                    "rounds": rounds,
                    "total_bits": bits,
                    "bits_per_round_per_node": bits / rounds / n,
                    "messages": msgs,
                }
            )
        return rows

    rows = run_once(benchmark, measure)
    print_table(f"E10 rounds vs bandwidth on a {n}-cycle (backend={backend})", rows)
    by_name = {row["algorithm"]: row for row in rows}
    # Round ordering: flooding <= name_dropper << push/pull.
    assert by_name["flooding"]["rounds"] <= by_name["name_dropper"]["rounds"]
    assert by_name["name_dropper"]["rounds"] < by_name["push"]["rounds"]
    assert by_name["name_dropper"]["rounds"] < by_name["pull"]["rounds"]
    # Bandwidth ordering (per node per round): push/pull are O(log n) bits,
    # the baselines are not.
    id_bits = id_bits_for(n)
    assert by_name["push"]["bits_per_round_per_node"] <= 2 * id_bits
    assert by_name["pull"]["bits_per_round_per_node"] <= 3 * id_bits
    assert by_name["flooding"]["bits_per_round_per_node"] > 10 * id_bits


def test_e10_message_level_bandwidth(benchmark, smoke):
    """The message-passing simulator confirms the per-node bit budgets."""

    n = 16 if smoke else N

    def measure():
        rows = []
        for protocol in ["push", "pull", "name_dropper"]:
            sim = NetworkSimulator(gen.cycle_graph(n), protocol=protocol, rng=BENCH_SEED)
            sim.run_to_convergence(max_rounds=50_000)
            rows.append(
                {
                    "protocol": protocol,
                    "rounds": sim.stats.rounds,
                    "max_bits_per_node_round": sim.max_bits_per_node_round(),
                    "max_round_mean_bits_per_node": sim.max_round_mean_bits_per_node(),
                    "messages_sent": sim.stats.messages_sent,
                }
            )
        return rows

    rows = run_once(benchmark, measure)
    print_table(f"E10 message-level accounting on a {n}-cycle", rows)
    by_name = {row["protocol"]: row for row in rows}
    id_bits = id_bits_for(n)
    # Sender-side budgets hold for the true per-node max: push is two IDs.
    assert by_name["push"]["max_bits_per_node_round"] <= 2 * id_bits
    # Pull's *requester* budget is O(log n) (request + connect + its own
    # reply), but a popular node answers every request that lands on it,
    # so the true per-node max scales with the request in-degree; the
    # mean-load claim is the per-node-average one.
    assert by_name["pull"]["max_round_mean_bits_per_node"] <= 4 * id_bits
    assert by_name["pull"]["max_bits_per_node_round"] <= (n + 2) * id_bits
    assert by_name["name_dropper"]["max_bits_per_node_round"] > 4 * id_bits


def _mid_density_states(n: int, warm_rounds: int):
    """A cycle flooded for ``warm_rounds`` rounds, as an aligned backend pair.

    Flooding roughly doubles the knowledge radius per round, so after r
    rounds every node knows ~2^(r+1) others — dense enough that the list
    backend's O(Σ deg²) Python triple loop hurts, while many rounds still
    remain to convergence.  The list state is rebuilt canonically and the
    array state derived from it, so both backends start with identical
    neighbour-row order (identical seeded draws).
    """
    proc = NeighborhoodFlooding(ArrayGraph(n, gen.cycle_graph(n).edge_list()), rng=BENCH_SEED)
    for _ in range(warm_rounds):
        proc.step()
    state_list = proc.graph.to_dynamic()
    return {"list": state_list, "array": ArrayGraph.from_graph(state_list)}


def _time_one_round(process_cls, state, reps: int) -> dict:
    """Best-of-``reps`` seconds for one round from a fresh copy of ``state``."""
    best = float("inf")
    result = None
    for _ in range(reps):
        proc = process_cls(state.copy(), rng=BENCH_SEED)
        start = time.perf_counter()
        result = proc.step()
        best = min(best, time.perf_counter() - start)
    return {
        "seconds": best,
        "messages": result.messages_sent,
        "bits": result.bits_sent,
        "added": result.num_added,
    }


def test_e10_backend_shootout(benchmark, smoke):
    """List-vs-array single-round shoot-out for all three baselines at the largest n."""

    n = 256 if smoke else 1024
    warm_rounds = 3 if smoke else 4
    reps = trial_count(smoke, 3)

    def measure():
        states = _mid_density_states(n, warm_rounds)
        rows = []
        for name, process_cls in SHOOTOUT_PROCESSES:
            list_run = _time_one_round(process_cls, states["list"], reps)
            array_run = _time_one_round(process_cls, states["array"], reps)
            # Same seed, same state: the round must agree across backends.
            assert array_run["messages"] == list_run["messages"]
            assert array_run["bits"] == list_run["bits"]
            assert array_run["added"] == list_run["added"]
            rows.append(
                {
                    "process": name,
                    "n": n,
                    "list_round_s": list_run["seconds"],
                    "array_round_s": array_run["seconds"],
                    "speedup": list_run["seconds"] / array_run["seconds"],
                    "round_messages": list_run["messages"],
                    "round_added": list_run["added"],
                }
            )
        return rows

    rows = run_once(benchmark, measure)
    print_table(f"E10 list-vs-array baseline round at n={n}", rows)
    by_name = {row["process"]: row for row in rows}
    if smoke:
        return
    snapshot = {
        "pr": 3,
        "seed": BENCH_SEED,
        "n": n,
        "warm_rounds": warm_rounds,
        "results": {row["process"]: row for row in rows},
    }
    atomic_write_text(RESULTS_PATH, json.dumps(snapshot, indent=2) + "\n")
    print(f"snapshot written to {RESULTS_PATH}")
    # Acceptance: the packed flooding round (one pass of row unions) beats
    # the list-backend Python triple loop by >=5x at n=1024.
    assert by_name["flooding"]["speedup"] >= 5.0
