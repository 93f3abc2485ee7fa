"""E10 — baselines: rounds vs per-round bandwidth against Name Dropper / Pointer Jump / flooding.

The paper positions the gossip processes as the O(log n)-bits-per-message
alternative to prior discovery algorithms that finish in polylog rounds but
ship Θ(n)-size messages.  This benchmark regenerates that trade-off table:
for each algorithm, the convergence rounds, the total bits, and the peak
per-node per-round bit budget.
"""

from __future__ import annotations

import numpy as np

from repro.graphs import generators as gen
from repro.network import NetworkSimulator
from repro.network.message import id_bits_for
from repro.simulation.engine import measure_convergence_rounds

from _bench_helpers import BENCH_SEED, print_table, run_once, trial_count

N = 64
ALGORITHMS = ["push", "pull", "name_dropper", "pointer_jump", "flooding"]


def test_e10_rounds_vs_bits_tradeoff(benchmark, smoke):
    """Rounds and message-bit totals for every algorithm on the same starting graph."""

    n = 16 if smoke else N

    def measure():
        rows = []
        for name in ALGORITHMS:
            trials = []
            for t in range(trial_count(smoke, 3)):
                graph = gen.cycle_graph(n)
                result = measure_convergence_rounds(
                    name, graph, rng=BENCH_SEED + t, copy_graph=False
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
    print_table(f"E10 rounds vs bandwidth on a {n}-cycle", rows)
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

