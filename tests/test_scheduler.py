"""Tests for activation schedules and apply_schedule."""

import numpy as np
import pytest

from repro.core.pull import PullDiscovery
from repro.core.push import PushDiscovery
from repro.core.scheduler import (
    BernoulliActivation,
    FixedSubsetActivation,
    FullActivation,
    PoissonLikeActivation,
    RoundRobinActivation,
    apply_schedule,
)
from repro.graphs import generators as gen
from repro.network import NetworkSimulator


class TestSchedules:
    def test_full_activation(self, rng):
        assert list(FullActivation().active_nodes(5, 0, rng)) == [0, 1, 2, 3, 4]

    def test_bernoulli_activation_rate(self, rng):
        sched = BernoulliActivation(0.5)
        counts = [len(list(sched.active_nodes(100, r, rng))) for r in range(200)]
        assert 35 < np.mean(counts) < 65
        with pytest.raises(ValueError):
            BernoulliActivation(0.0)
        with pytest.raises(ValueError):
            BernoulliActivation(1.5)

    def test_fixed_subset(self, rng):
        sched = FixedSubsetActivation([3, 1, 3])
        assert list(sched.active_nodes(10, 0, rng)) == [1, 3]
        with pytest.raises(ValueError):
            FixedSubsetActivation([])

    def test_fixed_subset_rejects_out_of_range_ids(self, rng):
        """Out-of-range ids raise at first use instead of silently shrinking."""
        sched = FixedSubsetActivation([1, 3])
        with pytest.raises(ValueError, match="node 3"):
            sched.active_nodes(2, 0, rng)
        # the same schedule is still usable at a valid size
        assert list(sched.active_nodes(4, 0, rng)) == [1, 3]
        with pytest.raises(ValueError, match="non-negative"):
            FixedSubsetActivation([-1, 2])

    def test_round_robin(self, rng):
        sched = RoundRobinActivation()
        assert list(sched.active_nodes(4, 0, rng)) == [0]
        assert list(sched.active_nodes(4, 5, rng)) == [1]

    def test_poisson_like(self, rng):
        sched = PoissonLikeActivation()
        picks = {list(sched.active_nodes(6, r, rng))[0] for r in range(200)}
        assert picks == set(range(6))


class TestApplySchedule:
    def test_round_robin_converges(self):
        g = gen.cycle_graph(8)
        proc = apply_schedule(PushDiscovery(g, rng=0), RoundRobinActivation())
        result = proc.run_to_convergence(max_rounds=100_000)
        assert result.converged
        assert g.is_complete()

    def test_one_node_per_tick_means_one_proposal_per_tick(self):
        g = gen.cycle_graph(8)
        proc = apply_schedule(PushDiscovery(g, rng=1), PoissonLikeActivation())
        result = proc.step()
        assert len(result.proposed_edges) <= 1
        assert result.messages_sent <= 2

    def test_asynchronous_ticks_roughly_n_times_synchronous_rounds(self):
        """n one-node ticks do the work of one synchronous round (within a small factor)."""
        n = 12
        sync_rounds = []
        async_ticks = []
        for seed in range(3):
            g_sync = gen.cycle_graph(n)
            sync_rounds.append(PushDiscovery(g_sync, rng=seed).run_to_convergence().rounds)
            g_async = gen.cycle_graph(n)
            scheduled = apply_schedule(PushDiscovery(g_async, rng=seed), PoissonLikeActivation())
            async_ticks.append(scheduled.run_to_convergence(max_rounds=500_000).rounds)
        ratio = np.mean(async_ticks) / (n * np.mean(sync_rounds))
        assert 0.3 < ratio < 3.0

    def test_fixed_subset_connects_every_active_incident_pair_only(self):
        # With only the even nodes acting, every pair touching an active node
        # eventually appears (pull edges are always incident to the actor),
        # but pairs of two passive nodes can never be created.
        g = gen.cycle_graph(10)
        active = list(range(0, 10, 2))
        proc = apply_schedule(PullDiscovery(g, rng=2), FixedSubsetActivation(active))
        proc.run(5000)
        active_set = set(active)
        for u in range(10):
            for v in range(u + 1, 10):
                if u in active_set or v in active_set:
                    assert g.has_edge(u, v), f"active-incident pair ({u},{v}) missing"
        # the cycle's only passive-passive edges are the original ones, so the
        # graph cannot be complete
        assert not g.is_complete()

    def test_returns_the_process_and_full_activation_changes_nothing(self):
        """The schedule installs on the process itself; FullActivation acts like no schedule."""
        plain = PushDiscovery(gen.cycle_graph(6), rng=0)
        proc = PushDiscovery(gen.cycle_graph(6), rng=0)
        assert apply_schedule(proc, FullActivation()) is proc
        expected = plain.run_to_convergence()
        result = proc.run_to_convergence()
        assert (result.rounds, result.total_bits) == (expected.rounds, expected.total_bits)
        assert proc.graph.edge_list() == plain.graph.edge_list()
        assert proc.rng.bit_generator.state == plain.rng.bit_generator.state

    def test_rejects_anything_but_a_discovery_process(self):
        """Installing the hook on an object whose rounds never consult it would be a
        silent no-op."""
        sim = NetworkSimulator(gen.cycle_graph(8), protocol="push", rng=0)
        with pytest.raises(TypeError, match="DiscoveryProcess"):
            apply_schedule(sim, FixedSubsetActivation([0, 1]))
