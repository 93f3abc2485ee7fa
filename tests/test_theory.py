"""Tests for the executable theory helpers (edge probabilities, Lemma 2)."""

import numpy as np
import pytest

from repro.analysis import theory
from repro.core.pull import PullDiscovery
from repro.core.push import PushDiscovery
from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen


class TestPushEdgeProbability:
    def test_existing_edge_and_self_loop_are_zero(self):
        g = gen.complete_graph(4)
        assert theory.push_edge_probability(g, 0, 1) == 0.0
        assert theory.push_edge_probability(g, 2, 2) == 0.0

    def test_k4_minus_edge_matches_hand_computation(self):
        # Missing edge (0,1) in K4-minus-matching: two common neighbours of
        # degree 3 each add it with probability 2/9, independently.
        g = gen.complete_minus_matching(4, 1)
        expected = 1.0 - (1.0 - 2.0 / 9.0) ** 2
        assert theory.push_edge_probability(g, 0, 1) == pytest.approx(expected)

    def test_no_common_neighbor_means_zero(self):
        g = gen.path_graph(4)
        assert theory.push_edge_probability(g, 0, 3) == 0.0

    def test_matches_simulation_frequency(self):
        g = gen.star_graph(6)  # any leaf pair is created only by the centre
        p_theory = theory.push_edge_probability(g, 1, 2)
        rng = np.random.default_rng(0)
        hits = 0
        trials = 4000
        for _ in range(trials):
            work = g.copy()
            PushDiscovery(work, rng=rng).step()
            if work.has_edge(1, 2):
                hits += 1
        p_emp = hits / trials
        assert abs(p_emp - p_theory) < 0.03


class TestPullEdgeProbability:
    def test_zero_cases(self):
        g = gen.complete_graph(3)
        assert theory.pull_edge_probability(g, 0, 1) == 0.0
        assert theory.pull_edge_probability(g, 1, 1) == 0.0

    def test_path_two_hop(self):
        # On the path 0-1-2, node 0 reaches 2 via 1 with prob (1/1)*(1/2).
        g = gen.path_graph(3)
        assert theory.pull_edge_probability(g, 0, 2) == pytest.approx(0.5)
        # node 2 symmetrically reaches 0 with prob 0.5
        assert theory.pull_edge_probability(g, 2, 0) == pytest.approx(0.5)

    def test_matches_simulation_frequency(self):
        g = gen.cycle_graph(6)
        p_u = theory.pull_edge_probability(g, 0, 2)
        p_w = theory.pull_edge_probability(g, 2, 0)
        p_pair = 1.0 - (1.0 - p_u) * (1.0 - p_w)
        rng = np.random.default_rng(1)
        hits = 0
        trials = 4000
        for _ in range(trials):
            work = g.copy()
            PullDiscovery(work, rng=rng).step()
            if work.has_edge(0, 2):
                hits += 1
        assert abs(hits / trials - p_pair) < 0.03


class TestDirectedEdgeProbability:
    def test_directed_cycle(self):
        g = dgen.directed_cycle(5)
        # out-degree 1 everywhere: u -> u+2 is added with probability 1.
        assert theory.directed_edge_probability(g, 0, 2) == pytest.approx(1.0)
        assert theory.directed_edge_probability(g, 0, 3) == 0.0

    def test_zero_for_existing_or_self(self):
        g = dgen.complete_digraph(3)
        assert theory.directed_edge_probability(g, 0, 1) == 0.0
        assert theory.directed_edge_probability(g, 1, 1) == 0.0


class TestExpectedNewEdges:
    def test_complete_graph_zero(self):
        g = gen.complete_graph(5)
        assert theory.expected_new_edges_push(g) == 0.0
        assert theory.expected_new_edges_pull(g) == 0.0

    def test_push_expectation_matches_simulation(self):
        g = gen.cycle_graph(8)
        expected = theory.expected_new_edges_push(g)
        rng = np.random.default_rng(2)
        added = []
        for _ in range(2000):
            work = g.copy()
            result = PushDiscovery(work, rng=rng).step()
            added.append(result.num_added)
        assert abs(np.mean(added) - expected) < 0.15

    def test_pull_expectation_matches_simulation(self):
        g = gen.cycle_graph(8)
        expected = theory.expected_new_edges_pull(g)
        rng = np.random.default_rng(3)
        added = []
        for _ in range(2000):
            work = g.copy()
            result = PullDiscovery(work, rng=rng).step()
            added.append(result.num_added)
        assert abs(np.mean(added) - expected) < 0.15


class TestLemma2:
    def test_bound_value(self):
        assert theory.lemma2_round_bound(10, c=1.0) == pytest.approx(2 * 10 * np.log(10))
        with pytest.raises(ValueError):
            theory.lemma2_round_bound(1)
        with pytest.raises(ValueError):
            theory.lemma2_round_bound(10, c=0)

    def test_empirical_tail_respects_bound(self):
        fraction, bound = theory.lemma2_empirical_quantile(
            m=30, trials=300, c=1.0, rng=np.random.default_rng(4)
        )
        # Lemma 2 promises < 1/m = 1/30; allow slack for Monte-Carlo noise.
        assert fraction <= 0.05
        assert bound == pytest.approx(2 * 30 * np.log(30))

    def test_empirical_validation_args(self):
        with pytest.raises(ValueError):
            theory.lemma2_empirical_quantile(m=10, k=20)
