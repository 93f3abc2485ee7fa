"""E13 — ablation: activation schedules (synchronous vs asynchronous-style activation).

The paper states its bounds in synchronous rounds where every node acts.
This ablation measures what changes when activation is relaxed:

* Bernoulli(q) participation — only a q-fraction of nodes acts per round;
  total *work* (node activations) to convergence should stay roughly flat
  while rounds scale like 1/q.
* One-node-per-tick (asynchronous-style) activation — ticks/n should be
  comparable to the synchronous round count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.push import PushDiscovery
from repro.core.scheduler import BernoulliActivation, PoissonLikeActivation, apply_schedule
from repro.graphs import generators as gen

from _bench_helpers import BENCH_SEED, print_table, run_once, trial_count

N = 48
FRACTIONS = [1.0, 0.5, 0.25]


def _mean_over_trials(make_runner, trials=3):
    values = []
    for t in range(trials):
        values.append(make_runner(BENCH_SEED + t))
    return float(np.mean(values))


def test_e13_bernoulli_participation_work_conservation(benchmark, smoke):
    """Rounds grow like 1/q but total activations (work) stay within ~2x of synchronous."""

    def measure():
        rows = []
        for q in FRACTIONS:
            per_trial = []
            for t in range(trial_count(smoke, 3)):
                graph = gen.cycle_graph(N)
                proc = PushDiscovery(graph, rng=BENCH_SEED + t)
                if q < 1.0:
                    apply_schedule(proc, BernoulliActivation(q))
                result = proc.run_to_convergence(max_rounds=500_000)
                # messages_sent counts 2 per activation, so activations = messages / 2
                per_trial.append((result.rounds, result.total_messages / 2.0))
            rows.append(
                {
                    "participation q": q,
                    "rounds_mean": float(np.mean([r for r, _ in per_trial])),
                    "activations_mean": float(np.mean([w for _, w in per_trial])),
                }
            )
        return rows

    rows = run_once(benchmark, measure)
    base_rounds = rows[0]["rounds_mean"]
    base_work = rows[0]["activations_mean"]
    for row in rows:
        row["rounds/base"] = row["rounds_mean"] / base_rounds
        row["work/base"] = row["activations_mean"] / base_work
    print_table(f"E13 Bernoulli activation ablation (push, n={N})", rows)
    # Rounds inflate roughly like 1/q ...
    assert rows[-1]["rounds/base"] > 1.8
    # ... but the total work stays within a small factor of the synchronous run.
    assert rows[-1]["work/base"] < 2.5


def test_e13_async_ticks_match_synchronous_rounds(benchmark, smoke):
    """One-node-per-tick activation needs ~n times more ticks, i.e. similar total work."""

    trials = trial_count(smoke, 3)

    def measure():
        sync_rounds = _mean_over_trials(
            lambda s: PushDiscovery(gen.cycle_graph(N), rng=s).run_to_convergence().rounds,
            trials=trials,
        )

        def async_ticks(seed):
            proc = PushDiscovery(gen.cycle_graph(N), rng=seed)
            apply_schedule(proc, PoissonLikeActivation())
            return proc.run_to_convergence(max_rounds=2_000_000).rounds

        ticks = _mean_over_trials(async_ticks, trials=trials)
        return [
            {
                "model": "synchronous rounds",
                "count": sync_rounds,
                "normalized (per n activations)": sync_rounds,
            },
            {
                "model": "async ticks / n",
                "count": ticks,
                "normalized (per n activations)": ticks / N,
            },
        ]

    rows = run_once(benchmark, measure)
    print_table(f"E13 synchronous vs asynchronous activation (push, n={N})", rows)
    sync = rows[0]["normalized (per n activations)"]
    asyn = rows[1]["normalized (per n activations)"]
    assert 0.3 < asyn / sync < 3.0
