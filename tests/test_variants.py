"""Unit tests for the robustness variants (failures, participation, churn)."""

import pytest

from repro.core.base import UpdateSemantics
from repro.core.variants import ChurnModel, FaultyPullDiscovery, FaultyPushDiscovery
from repro.core.pull import PullDiscovery
from repro.core.push import PushDiscovery
from repro.graphs import generators as gen


class TestFaultyProcesses:
    def test_invalid_parameters_rejected(self):
        g = gen.cycle_graph(8)
        with pytest.raises(ValueError):
            FaultyPushDiscovery(g, rng=0, failure_prob=1.0)
        with pytest.raises(ValueError):
            FaultyPushDiscovery(g, rng=0, failure_prob=-0.1)
        with pytest.raises(ValueError):
            FaultyPushDiscovery(g, rng=0, participation_prob=0.0)

    def test_zero_failure_full_participation_behaves_like_base(self):
        rounds_base = PushDiscovery(gen.cycle_graph(10), rng=5).run_to_convergence().rounds
        rounds_faulty = (
            FaultyPushDiscovery(gen.cycle_graph(10), rng=5, failure_prob=0.0, participation_prob=1.0)
            .run_to_convergence()
            .rounds
        )
        assert rounds_base == rounds_faulty

    def test_faulty_push_still_converges(self):
        g = gen.cycle_graph(10)
        proc = FaultyPushDiscovery(g, rng=1, failure_prob=0.3, participation_prob=0.8)
        assert proc.run_to_convergence().converged
        assert g.is_complete()

    def test_faulty_pull_still_converges(self):
        g = gen.path_graph(10)
        proc = FaultyPullDiscovery(g, rng=2, failure_prob=0.3, participation_prob=0.8)
        assert proc.run_to_convergence().converged

    def test_failures_slow_convergence_on_average(self):
        slow, fast = [], []
        for seed in range(4):
            fast.append(PushDiscovery(gen.cycle_graph(12), rng=seed).run_to_convergence().rounds)
            slow.append(
                FaultyPushDiscovery(gen.cycle_graph(12), rng=seed, failure_prob=0.6)
                .run_to_convergence()
                .rounds
            )
        assert sum(slow) > sum(fast)

    def test_partial_participation_subset_of_nodes(self):
        g = gen.cycle_graph(20)
        proc = FaultyPushDiscovery(g, rng=3, participation_prob=0.5)
        participants = list(proc.participating_nodes())
        assert 0 < len(participants) < 20
        assert all(0 <= u < 20 for u in participants)

    def test_full_participation_returns_all_nodes(self):
        g = gen.cycle_graph(6)
        proc = FaultyPushDiscovery(g, rng=0, participation_prob=1.0)
        assert list(proc.participating_nodes()) == list(range(6))


class TestSequentialFaultyProcesses:
    """Sequential rounds go through the scalar ``propose`` of each variant."""

    @pytest.mark.parametrize("faulty_cls", [FaultyPushDiscovery, FaultyPullDiscovery])
    def test_sequential_faulty_process_converges(self, faulty_cls):
        g = gen.cycle_graph(10)
        proc = faulty_cls(
            g, rng=6, semantics=UpdateSemantics.SEQUENTIAL, failure_prob=0.3,
            participation_prob=0.8,
        )
        assert proc.run_to_convergence().converged
        assert g.is_complete()

    @pytest.mark.parametrize(
        "faulty_cls, base_cls",
        [(FaultyPushDiscovery, PushDiscovery), (FaultyPullDiscovery, PullDiscovery)],
    )
    def test_sequential_zero_failure_is_draw_for_draw_base(self, faulty_cls, base_cls):
        seq = UpdateSemantics.SEQUENTIAL
        base = base_cls(gen.path_graph(12), rng=9, semantics=seq)
        faulty = faulty_cls(gen.path_graph(12), rng=9, semantics=seq, failure_prob=0.0)
        a = base.run_to_convergence(record_history=True)
        b = faulty.run_to_convergence(record_history=True)
        assert [r.added_edges for r in a.history] == [r.added_edges for r in b.history]
        assert base.rng.bit_generator.state == faulty.rng.bit_generator.state


class TestChurnModel:
    def test_invalid_parameters(self):
        proc = PushDiscovery(gen.cycle_graph(8), rng=0)
        with pytest.raises(ValueError):
            ChurnModel(proc, leave_prob=1.0)
        with pytest.raises(ValueError):
            ChurnModel(proc, min_active_fraction=0.0)

    def test_active_floor_respected(self):
        proc = PushDiscovery(gen.cycle_graph(10), rng=0)
        churn = ChurnModel(proc, leave_prob=0.9, join_prob=0.0, min_active_fraction=0.5, rng=1)
        for _ in range(50):
            churn.churn_step()
        assert len(churn.active) >= churn.min_active

    def test_inactive_nodes_do_not_propose(self):
        proc = PushDiscovery(gen.cycle_graph(8), rng=0)
        churn = ChurnModel(proc, rng=1)
        churn.active.clear()
        churn.active.update({0, 1})
        # node 5 is inactive -> its guarded propose returns None
        assert proc.propose(5) is None

    def test_run_converges_with_mild_churn(self):
        proc = PushDiscovery(gen.cycle_graph(10), rng=4)
        churn = ChurnModel(proc, leave_prob=0.02, join_prob=0.3, min_active_fraction=0.7, rng=5)
        rounds, converged = churn.run(max_rounds=5000)
        assert converged
        assert churn.active_pairs_complete()

    def test_active_pairs_complete_definition(self):
        proc = PushDiscovery(gen.complete_graph(6), rng=0)
        churn = ChurnModel(proc, rng=0)
        assert churn.active_pairs_complete()
