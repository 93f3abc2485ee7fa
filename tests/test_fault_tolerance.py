"""Crash-tolerant pools: injected worker death, retry/backoff, degradation, leaks.

The deterministic :class:`~repro.network.failures.FaultInjector` kills
pool workers (``os._exit``) or raises inside them at pre-registered
coordinates, so each recovery path is exercised reproducibly:

* the trial runner rebuilds its pool and retries — recovered results
  equal an uninjected run's (trials replay their own seed streams);
* past the retry budget both pools degrade to in-process execution and
  still finish correctly;
* a deterministic in-worker exception is never retried: the runner
  records it per-trial (siblings intact), the sharded engine propagates
  it after releasing every shared-memory segment;
* a raise while the runner is still submitting jobs shuts its pool down.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.network.failures import DropBurst, FaultInjector, InjectedFault
from repro.simulation.engine import make_process
from repro.simulation.experiment import ExperimentSpec
from repro.simulation.runner import run_trials, summarize_trials
from repro.simulation.sharding import ShardedProcess, _SharedBlock

SEED = 20120614


def canon(edges):
    return sorted((int(u), int(v)) for u, v in edges)


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
# sharded pool
# --------------------------------------------------------------------------- #
def sharded(n=64, parallel=None, **kwargs):
    rng = np.random.default_rng(3)
    graph = gen.make_family("cycle", n, rng)
    process = make_process("push", graph, rng=rng, backend="array")
    return ShardedProcess(process, shards=3, seed=999, parallel=parallel, **kwargs)


class TestShardedFaults:
    def test_shard_worker_death_retried_draw_for_draw(self):
        reference = sharded(parallel=False)
        reference.run_to_convergence()
        reference.close()

        injector = FaultInjector().kill_shard_round(2, shard=0, times=1)
        survivor = sharded(parallel=True, fault_injector=injector)
        try:
            survivor.run_to_convergence()
            assert canon(survivor.graph.edges()) == canon(reference.graph.edges())
            assert survivor.pool_failures == 1
            assert survivor._parallel  # recovered, not degraded
        finally:
            survivor.close()

    def test_shard_pool_degrades_after_budget(self):
        reference = sharded(parallel=False)
        reference.run_to_convergence()
        reference.close()

        injector = FaultInjector().kill_shard_round(2, shard=1, times=10)
        degraded = sharded(parallel=True, retries=2, fault_injector=injector)
        try:
            degraded.run_to_convergence()
            assert canon(degraded.graph.edges()) == canon(reference.graph.edges())
            assert not degraded._parallel
            assert degraded.pool_failures == 3  # retries + the final straw
        finally:
            degraded.close()

    def test_worker_exception_propagates_with_zero_leaked_segments(self):
        injector = FaultInjector(mode="raise").kill_shard_round(1, shard=0, times=1)
        process = sharded(parallel=True, fault_injector=injector)
        published: list = []
        original_publish = _SharedBlock.publish

        def tracking_publish(self, array):
            spec = original_publish(self, array)
            published.append(spec[0])
            return spec

        _SharedBlock.publish = tracking_publish
        try:
            with pytest.raises(InjectedFault):
                process.run_to_convergence()
        finally:
            _SharedBlock.publish = original_publish
            process.close()
        assert published, "pool path never published shared memory"
        assert process._blocks == {}
        assert process._pool is None
        from multiprocessing import shared_memory

        for name in set(published):
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_close_after_init_failure_is_silent(self):
        """Partially-constructed wrappers (ctor raised) must not warn on gc."""
        from repro.core.variants import FaultyPushDiscovery

        rng = np.random.default_rng(3)
        graph = gen.make_family("cycle", 8, rng)
        process = FaultyPushDiscovery(graph, rng=rng)
        with pytest.raises(ValueError, match="no sharded round kernel"):
            ShardedProcess(process, shards=2)


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
        injector.kill_shard_round(5, shard=1)
        assert injector.take_shard_round(5, 1) == "exit"
        assert injector.take_shard_round(5, 1) is None
        assert injector.take_shard_round(5, 0) is None
