"""Unit tests for the analysis layer: scaling, non-monotonicity, degree growth, lower bounds."""

import numpy as np
import pytest

from repro.analysis.degree_growth import measure_degree_growth_phases
from repro.analysis.lower_bounds import lower_bound_ratio_check
from repro.analysis.nonmonotonicity import (
    exact_expected_convergence_time,
    monte_carlo_expected_convergence_time,
    nonmonotonicity_gap,
)
from repro.analysis.scaling import measure_scaling
from repro.graphs import generators as gen
from repro.simulation import bounds


class TestExactExpectation:
    def test_complete_graph_takes_zero_rounds(self):
        assert exact_expected_convergence_time(gen.complete_graph(4), "push") == 0.0
        assert exact_expected_convergence_time(gen.complete_graph(3), "pull") == 0.0

    def test_triangle_plus_pendant_positive(self):
        val = exact_expected_convergence_time(gen.fig1c_nonmonotone(), "push")
        assert val > 1.0

    def test_known_value_single_missing_edge_push(self):
        # K4 minus one edge: only the two common neighbours of the missing
        # pair can add it, each with probability 2/9 per round (ordered pair
        # of distinct specific neighbours out of 3^2), so per round the edge
        # appears with probability 1 - (7/9)^2 and E[T] = 1 / (1 - 49/81).
        g = gen.complete_minus_matching(4, 1)
        expected = 1.0 / (1.0 - (7.0 / 9.0) ** 2)
        assert exact_expected_convergence_time(g, "push") == pytest.approx(expected, rel=1e-9)

    def test_rejects_large_graphs(self):
        with pytest.raises(ValueError):
            exact_expected_convergence_time(gen.cycle_graph(8), "push")

    def test_rejects_unknown_process(self):
        with pytest.raises(ValueError):
            exact_expected_convergence_time(gen.complete_graph(3), "flood")

    def test_pull_le_push_on_path(self):
        # Empirically the two-hop walk completes small paths faster than
        # triangulation (endpoints can act); sanity-check the exact engine
        # reproduces that ordering.
        path = gen.fig1c_path_subgraph()
        assert exact_expected_convergence_time(path, "pull") < exact_expected_convergence_time(
            path, "push"
        )


class TestMonteCarloExpectation:
    def test_matches_exact_within_error(self):
        g = gen.fig1c_nonmonotone()
        exact = exact_expected_convergence_time(g, "push")
        mean, sem = monte_carlo_expected_convergence_time(g, "push", trials=1500, seed=0)
        assert abs(mean - exact) < max(5 * sem, 0.3)

    def test_deterministic_given_seed(self):
        g = gen.fig1c_nonmonotone()
        a = monte_carlo_expected_convergence_time(g, "push", trials=50, seed=3)
        b = monte_carlo_expected_convergence_time(g, "push", trials=50, seed=3)
        assert a == b

    def test_rejects_unknown_process(self):
        with pytest.raises(ValueError, match="process must be"):
            monte_carlo_expected_convergence_time(gen.complete_graph(3), "flood", seed=0)


class TestNonmonotonicity:
    def test_fig1c_gap_positive_for_push(self):
        gap = nonmonotonicity_gap("push")
        assert gap["fig1c_gap"] > 0
        assert gap["fig1c_triangle"] == 0.0

    def test_same_node_set_pair_gap_positive_for_push(self):
        gap = nonmonotonicity_gap("push")
        assert gap["pair_gap"] > 0
        assert gap["pair_diamond"] > gap["pair_cycle4"]

    def test_exact_values_match_hand_computation(self):
        # The 4-cycle and diamond expected times are exactly computable; pin
        # them to guard against regressions in the exact engine.
        gap = nonmonotonicity_gap("push")
        assert gap["pair_cycle4"] == pytest.approx(2.0792, abs=1e-3)
        assert gap["pair_diamond"] == pytest.approx(2.5312, abs=1e-3)


class TestScalingMeasurement:
    def test_push_cycle_scaling_shape(self):
        m = measure_scaling("push", "cycle", sizes=[8, 16, 32], trials=2, seed=1)
        assert len(m.mean_rounds) == 3
        assert m.mean_rounds[0] < m.mean_rounds[-1]
        # between the lower bound (n log n -> exponent ~1+) and a loose cap
        assert 0.9 < m.power_fit.exponent < 2.0
        rows = m.as_rows()
        assert len(rows) == 3 and rows[0]["n"] == 8

    def test_normalized_by_bound(self):
        m = measure_scaling("push", "cycle", sizes=[8, 16], trials=2, seed=2)
        ratios = m.normalized_by(bounds.n_log2_n)
        assert (ratios > 0).all()

    def test_requires_two_sizes(self):
        with pytest.raises(ValueError, match="two sizes"):
            measure_scaling("push", "cycle", sizes=[8], trials=1, seed=0)


class TestDegreeGrowth:
    def test_phases_cover_growth_to_completion(self):
        g = gen.cycle_graph(16)
        phases = measure_degree_growth_phases(g, process="push", rng=3)
        assert phases, "at least one growth phase should be recorded"
        assert phases[-1].threshold == 15  # n - 1
        # thresholds strictly increase and rounds are non-decreasing
        thresholds = [p.threshold for p in phases]
        assert thresholds == sorted(set(thresholds))
        assert all(p.length >= 0 for p in phases)
        assert all(p.normalized_length >= 0 for p in phases)

    def test_growth_factor_validation(self):
        with pytest.raises(ValueError):
            measure_degree_growth_phases(gen.cycle_graph(8), growth_factor=1.0)

    def test_original_graph_untouched(self):
        g = gen.cycle_graph(12)
        measure_degree_growth_phases(g, process="pull", rng=1)
        assert g.number_of_edges() == 12


class TestLowerBoundCheck:
    def test_push_on_sparse_graphs_respects_n_log_n_shape(self):
        check = lower_bound_ratio_check(
            "push",
            instance_factory=gen.cycle_graph,
            sizes=[8, 16, 32],
            bound=bounds.n_log_n,
            trials=2,
            seed=0,
        )
        assert check.non_vanishing
        assert all(r > 0.1 for r in check.ratios)
        assert check.power_fit_exponent > 0.9

    def test_requires_two_sizes(self):
        with pytest.raises(ValueError, match="two sizes"):
            lower_bound_ratio_check(
                "push", gen.cycle_graph, sizes=[8], bound=bounds.n_log_n, seed=0
            )
