"""Crash-tolerant trial pool: injected worker death, retry/backoff, degradation.

The deterministic :class:`~repro.network.failures.FaultInjector` kills
trial-pool workers (``os._exit``) or raises inside them at pre-registered
trials, so each recovery path is exercised reproducibly:

* the trial runner rebuilds its pool and retries — recovered results
  equal an uninjected run's (trials replay their own seed streams, and
  an unseeded run fixes its root seed once, so its trials replay too);
* past the retry budget the runner degrades to in-process execution and
  still finishes correctly;
* a deterministic in-worker exception is never retried: the runner
  records it per-trial with the root seed that reproduces it, siblings
  intact;
* a raise while the runner is still submitting jobs shuts its pool down.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest

from repro.network.failures import DropBurst, FaultInjector
from repro.simulation.experiment import ExperimentSpec
from repro.simulation.rng import SeedSequenceFactory
from repro.simulation.runner import run_trials, summarize_trials

SEED = 20120614


def spec(n=24, trials=4):
    return ExperimentSpec(process="push", family="cycle", n=n, trials=trials)


def results_key(trials):
    return [(t.trial_index, t.rounds, t.edges_added, t.messages, t.bits) for t in trials]


# --------------------------------------------------------------------------- #
# trial runner
# --------------------------------------------------------------------------- #
class TestRunnerFaults:
    def test_pool_matches_serial(self):
        serial = run_trials(spec(), root_seed=11)
        pooled = run_trials(spec(), root_seed=11, processes=2)
        assert results_key(pooled) == results_key(serial)

    def test_worker_death_is_retried_and_recovers(self):
        serial = run_trials(spec(), root_seed=11)
        injector = FaultInjector().kill_trial(1, times=1)
        recovered = run_trials(spec(), root_seed=11, processes=2, fault_injector=injector)
        assert results_key(recovered) == results_key(serial)
        assert not any(t.failed for t in recovered)

    def test_degrades_to_in_process_after_budget(self):
        serial = run_trials(spec(), root_seed=11)
        injector = FaultInjector()
        for i in range(4):
            injector.kill_trial(i, times=10)  # every pooled attempt dies
        degraded = run_trials(
            spec(), root_seed=11, processes=2, retries=2, fault_injector=injector
        )
        assert results_key(degraded) == results_key(serial)

    def test_raising_trial_recorded_with_siblings_intact(self):
        serial = run_trials(spec(), root_seed=11)
        injector = FaultInjector(mode="raise").kill_trial(2, times=1)
        mixed = run_trials(spec(), root_seed=11, processes=2, fault_injector=injector)
        assert [t.failed for t in mixed] == [False, False, True, False]
        error = mixed[2].error
        assert error.trial_index == 2
        assert error.root_seed == 11
        assert "push on cycle" in error.label
        assert "InjectedFault" in error.cause
        kept = [t for t in mixed if not t.failed]
        assert results_key(kept) == [k for k in results_key(serial) if k[0] != 2]

    def test_raising_submission_shuts_the_pool_down(self):
        """Submission sits inside the try whose finally shuts the pool down.

        With submission outside it, a raise while jobs are being submitted
        left the workers alive for as long as the traceback (which holds
        the pool) was referenced.
        """

        class RaisingInjector(FaultInjector):
            def take_trial(self, trial_index):
                if trial_index == 2:
                    raise RuntimeError("no directive for trial 2")
                return super().take_trial(trial_index)

        with pytest.raises(RuntimeError, match="trial 2") as excinfo:
            run_trials(spec(), root_seed=11, processes=2, fault_injector=RaisingInjector())
        # excinfo holds the traceback, and through it the runner's frame and
        # pool: the workers must exit because the pool was shut down, not
        # because it was garbage collected.
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, (
                f"pool workers outlived {excinfo.value!r}: {multiprocessing.active_children()}"
            )
            time.sleep(0.01)

    def test_unseeded_factory_replays_each_index(self):
        """An unseeded factory fixes its entropy once; each index keeps its stream."""
        factory = SeedSequenceFactory(None)
        first = factory.rng_for_index(3).random()
        assert factory.rng_for_index(3).random() == first

    def test_unseeded_failure_reports_a_seed_that_replays_the_run(self):
        injector = FaultInjector(mode="raise").kill_trial(3, times=1)
        mixed = run_trials(spec(), root_seed=None, processes=2, fault_injector=injector)
        assert [t.failed for t in mixed] == [False, False, False, True]
        root_seed = mixed[3].error.root_seed
        assert isinstance(root_seed, int)
        replay = run_trials(spec(), root_seed=root_seed)
        assert results_key(replay[:3]) == results_key(mixed[:3])

    def test_summarize_counts_failures_and_rejects_all_failed(self):
        injector = FaultInjector(mode="raise").kill_trial(0, times=1)
        mixed = run_trials(spec(trials=2), root_seed=11, processes=2, fault_injector=injector)
        summary = summarize_trials(mixed)
        assert summary["failed"] == 1.0
        assert summary["trials"] == 1.0

        all_failed = [t for t in mixed if t.failed] or mixed[:1]
        with pytest.raises(ValueError, match="failed"):
            summarize_trials([t for t in mixed if t.failed] * 2 or all_failed)


# --------------------------------------------------------------------------- #
# failure models
# --------------------------------------------------------------------------- #
class TestDropBurst:
    def test_validates_probabilities(self):
        with pytest.raises(ValueError):
            DropBurst(p_bad=1.0, p_recover=0.5)
        with pytest.raises(ValueError):
            DropBurst(p_bad=0.1, p_recover=0.0)

    def test_degenerate_channel_is_reliable(self):
        channel = DropBurst(p_bad=0.0, p_recover=1.0)
        rng = np.random.default_rng(SEED)
        assert all(channel.delivered(None, rng) for _ in range(200))

    def test_losses_arrive_in_bursts(self):
        """Same stationary loss rate as DropUniform, but correlated runs."""
        channel = DropBurst(p_bad=0.05, p_recover=0.2)
        rng = np.random.default_rng(SEED)
        outcomes = [channel.delivered(None, rng) for _ in range(20000)]
        losses = outcomes.count(False) / len(outcomes)
        # stationary loss rate p_bad / (p_bad + p_recover) = 0.2
        assert 0.1 < losses < 0.3
        # mean loss-burst length 1/p_recover = 5 — far above iid's ~1
        bursts = []
        run = 0
        for delivered in outcomes:
            if not delivered:
                run += 1
            elif run:
                bursts.append(run)
                run = 0
        assert np.mean(bursts) > 2.5

    def test_injector_validates_mode(self):
        with pytest.raises(ValueError, match="mode"):
            FaultInjector(mode="explode")

    def test_injector_schedule_is_attempt_aware(self):
        injector = FaultInjector().kill_trial(3, times=2)
        assert injector.take_trial(3) == "exit"
        assert injector.take_trial(3) == "exit"
        assert injector.take_trial(3) is None
        assert injector.take_trial(0) is None
