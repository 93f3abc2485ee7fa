"""Unit tests for the undirected graph family generators."""

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs import properties as props


class TestDeterministicFamilies:
    def test_path_graph(self):
        g = gen.path_graph(6)
        assert g.number_of_edges() == 5
        assert g.degree(0) == 1 and g.degree(3) == 2
        assert props.is_connected(g)

    def test_path_graph_single_node(self):
        assert gen.path_graph(1).number_of_edges() == 0

    def test_path_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            gen.path_graph(0)

    def test_cycle_graph(self):
        g = gen.cycle_graph(7)
        assert g.number_of_edges() == 7
        assert all(g.degree(u) == 2 for u in g.nodes())
        with pytest.raises(ValueError):
            gen.cycle_graph(2)

    def test_star_graph(self):
        g = gen.star_graph(8)
        assert g.degree(0) == 7
        assert all(g.degree(u) == 1 for u in range(1, 8))
        with pytest.raises(ValueError):
            gen.star_graph(1)

    def test_complete_graph(self):
        g = gen.complete_graph(6)
        assert g.is_complete()
        assert g.number_of_edges() == 15

    def test_complete_bipartite(self):
        g = gen.complete_bipartite_graph(2, 3)
        assert g.number_of_edges() == 6
        assert g.degree(0) == 3 and g.degree(2) == 2
        with pytest.raises(ValueError):
            gen.complete_bipartite_graph(0, 3)

    def test_grid_graph(self):
        g = gen.grid_graph(3, 4)
        assert g.n == 12
        assert g.number_of_edges() == 3 * 3 + 2 * 4
        assert props.is_connected(g)

    def test_hypercube(self):
        g = gen.hypercube_graph(3)
        assert g.n == 8
        assert all(g.degree(u) == 3 for u in g.nodes())
        assert props.is_connected(g)

    def test_hypercube_dim_zero(self):
        g = gen.hypercube_graph(0)
        assert g.n == 1 and g.number_of_edges() == 0

    def test_binary_tree(self):
        g = gen.binary_tree_graph(7)
        assert g.number_of_edges() == 6
        assert props.is_connected(g)
        assert g.degree(0) == 2

    def test_caterpillar(self):
        g = gen.caterpillar_graph(4, 2)
        assert g.n == 12
        assert g.number_of_edges() == 3 + 8
        assert props.is_connected(g)

    def test_lollipop(self):
        g = gen.lollipop_graph(4, 3)
        assert g.n == 7
        assert g.number_of_edges() == 6 + 3
        assert props.is_connected(g)

    def test_barbell(self):
        g = gen.barbell_graph(3, 2)
        assert g.n == 8
        assert props.is_connected(g)
        # two triangles (3 edges each) + path of 3 edges joining them
        assert g.number_of_edges() == 3 + 3 + 3

    def test_wheel(self):
        g = gen.wheel_graph(6)
        assert g.degree(0) == 5
        assert all(g.degree(u) == 3 for u in range(1, 6))
        with pytest.raises(ValueError):
            gen.wheel_graph(3)

    def test_double_star(self):
        g = gen.double_star_graph(2, 3)
        assert g.n == 7
        assert g.degree(0) == 3 and g.degree(1) == 4
        assert props.is_connected(g)


class TestPaperConstructions:
    def test_fig1c_nonmonotone_is_paw(self):
        g = gen.fig1c_nonmonotone()
        assert g.n == 4
        assert g.number_of_edges() == 4
        assert props.is_connected(g)
        # one pendant node, one degree-3 node, two degree-2 nodes
        assert sorted(g.degrees().tolist()) == [1, 2, 2, 3]

    def test_fig1c_triangle_subgraph_complete(self):
        t = gen.fig1c_triangle_subgraph()
        assert t.n == 3
        assert t.is_complete()

    def test_fig1c_path_subgraph(self):
        p = gen.fig1c_path_subgraph()
        assert p.number_of_edges() == 3
        assert sorted(p.degrees().tolist()) == [1, 1, 2, 2]

    def test_nonmonotone_pair_is_nested(self):
        sparser, denser = gen.nonmonotone_supergraph_pair()
        assert sparser.n == denser.n == 4
        assert denser.number_of_edges() == sparser.number_of_edges() + 1
        for u, v in sparser.edges():
            assert denser.has_edge(u, v)

    def test_complete_minus_matching(self):
        g = gen.complete_minus_matching(8, 3)
        assert g.missing_edges() == 3
        assert not g.has_edge(0, 1)
        assert not g.has_edge(2, 3)
        assert not g.has_edge(4, 5)
        assert g.has_edge(6, 7)
        with pytest.raises(ValueError):
            gen.complete_minus_matching(4, 3)

    def test_complete_minus_random_edges(self, rng):
        g = gen.complete_minus_random_edges(10, 5, rng)
        assert g.missing_edges() == 5
        with pytest.raises(ValueError):
            gen.complete_minus_random_edges(4, 10, rng)


class TestRandomFamilies:
    def test_erdos_renyi_bounds_and_connectivity(self, rng):
        g = gen.erdos_renyi_graph(30, 0.2, rng, ensure_connected=True)
        assert props.is_connected(g)
        assert g.n == 30

    def test_erdos_renyi_p_zero_and_one(self, rng):
        assert gen.erdos_renyi_graph(10, 0.0, rng).number_of_edges() == 0
        assert gen.erdos_renyi_graph(6, 1.0, rng).is_complete()
        with pytest.raises(ValueError):
            gen.erdos_renyi_graph(5, 1.5, rng)

    def test_gnm_random_graph(self, rng):
        g = gen.gnm_random_graph(12, 20, rng)
        assert g.number_of_edges() == 20
        with pytest.raises(ValueError):
            gen.gnm_random_graph(4, 10, rng)

    def test_random_tree(self, rng):
        g = gen.random_tree(25, rng)
        assert g.number_of_edges() == 24
        assert props.is_connected(g)

    def test_barabasi_albert(self, rng):
        g = gen.barabasi_albert_graph(40, 2, rng)
        assert props.is_connected(g)
        assert g.min_degree() >= 1
        assert g.max_degree() > 2  # hubs emerge
        with pytest.raises(ValueError):
            gen.barabasi_albert_graph(5, 5, rng)

    def test_watts_strogatz(self, rng):
        g = gen.watts_strogatz_graph(20, 4, 0.1, rng)
        assert props.is_connected(g)
        assert g.min_degree() >= 4
        with pytest.raises(ValueError):
            gen.watts_strogatz_graph(10, 3, 0.1, rng)
        with pytest.raises(ValueError):
            gen.watts_strogatz_graph(10, 12, 0.1, rng)

    def test_random_regular(self, rng):
        g = gen.random_regular_graph(10, 3, rng)
        assert all(g.degree(u) == 3 for u in g.nodes())
        with pytest.raises(ValueError):
            gen.random_regular_graph(5, 3, rng)  # n*d odd

    def test_random_connected_graph(self, rng):
        g = gen.random_connected_graph(30, 0.05, rng)
        assert props.is_connected(g)


class TestArgumentValidation:
    """Every constructor refuses sizes that cannot describe its graph."""

    @pytest.mark.parametrize(
        "build, message",
        [
            pytest.param(lambda: gen.complete_graph(0), "at least 1 node", id="complete-0"),
            pytest.param(lambda: gen.grid_graph(0, 3), "grid dimensions", id="grid-rows-0"),
            pytest.param(lambda: gen.grid_graph(3, 0), "grid dimensions", id="grid-cols-0"),
            pytest.param(lambda: gen.hypercube_graph(-1), "non-negative", id="hypercube-neg"),
            pytest.param(lambda: gen.binary_tree_graph(0), "at least 1 node", id="binary-tree-0"),
            pytest.param(lambda: gen.caterpillar_graph(0, 2), "spine", id="caterpillar-spine-0"),
            pytest.param(lambda: gen.caterpillar_graph(3, -1), "legs", id="caterpillar-legs-neg"),
            pytest.param(lambda: gen.lollipop_graph(0, 2), "clique_size", id="lollipop-clique-0"),
            pytest.param(lambda: gen.lollipop_graph(3, -1), "path_length", id="lollipop-path-neg"),
            pytest.param(lambda: gen.barbell_graph(0, 1), "clique_size", id="barbell-clique-0"),
            pytest.param(lambda: gen.barbell_graph(3, -1), "path_length", id="barbell-path-neg"),
            pytest.param(lambda: gen.double_star_graph(-1, 2), "leaf counts", id="double-star-neg"),
            pytest.param(lambda: gen.random_tree(0, rng=0), "at least 1 node", id="random-tree-0"),
            pytest.param(
                lambda: gen.watts_strogatz_graph(10, 4, 1.5, rng=0), "p must be", id="ws-p"
            ),
            pytest.param(
                lambda: gen.random_regular_graph(4, 4, rng=0), "d must be < n", id="regular-d-n"
            ),
            pytest.param(
                lambda: gen.random_regular_graph(4, 0, rng=0), "d must be >= 1", id="regular-d-0"
            ),
        ],
    )
    def test_rejects_invalid_arguments(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_random_regular_gives_up_after_max_tries(self):
        with pytest.raises(RuntimeError, match="in 0 tries"):
            gen.random_regular_graph(10, 3, rng=0, max_tries=0)


class TestFamilyRegistry:
    def test_registry_names_nonempty(self):
        names = gen.family_names()
        assert "cycle" in names and "erdos_renyi" in names

    @pytest.mark.parametrize("name", gen.family_names())
    def test_every_family_builds_connected_graph(self, name, rng):
        g = gen.make_family(name, 20, rng)
        assert g.n >= 10
        assert props.is_connected(g)
        assert g.min_degree() >= 1

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError):
            gen.make_family("nope", 10)


class TestExplicitSeedContract:
    """Random constructions take their randomness from the caller, never from entropy."""

    def test_generators_reject_none(self):
        with pytest.raises(ValueError, match="explicit rng"):
            gen.erdos_renyi_graph(10, 0.5)

    def test_directed_generators_reject_none(self):
        from repro.graphs import directed_generators as dgen

        with pytest.raises(ValueError, match="explicit rng"):
            dgen.random_digraph(10, 0.5)

    def test_generators_accept_int_seed(self):
        a = gen.erdos_renyi_graph(16, 0.3, rng=7)
        b = gen.erdos_renyi_graph(16, 0.3, rng=np.random.default_rng(7))
        assert sorted(a.edge_list()) == sorted(b.edge_list())

    def test_lemma2_rejects_none_and_accepts_int(self):
        from repro.analysis import theory

        with pytest.raises(ValueError, match="explicit rng"):
            theory.lemma2_empirical_quantile(m=20, trials=10)
        f1, b1 = theory.lemma2_empirical_quantile(m=20, trials=10, rng=3)
        f2, b2 = theory.lemma2_empirical_quantile(
            m=20, trials=10, rng=np.random.default_rng(3)
        )
        assert (f1, b1) == (f2, b2)

    def test_measure_scaling_rejects_none(self):
        from repro.analysis.scaling import measure_scaling

        with pytest.raises(ValueError, match="measure_scaling requires an explicit seed"):
            measure_scaling("push", "cycle", sizes=[8, 12], trials=1)

    def test_lower_bound_ratio_check_rejects_none(self):
        from repro.analysis.lower_bounds import lower_bound_ratio_check
        from repro.simulation.bounds import n_log_n

        with pytest.raises(ValueError, match="lower_bound_ratio_check requires an explicit seed"):
            lower_bound_ratio_check("push", gen.cycle_graph, sizes=[8, 12], bound=n_log_n)

    def test_monte_carlo_expected_convergence_time_rejects_none(self):
        from repro.analysis.nonmonotonicity import monte_carlo_expected_convergence_time

        with pytest.raises(ValueError, match="requires an explicit seed"):
            monte_carlo_expected_convergence_time(gen.fig1c_nonmonotone(), trials=2)

    def test_simulate_social_evolution_rejects_none(self):
        from repro.social.evolution import simulate_social_evolution

        with pytest.raises(ValueError, match="simulate_social_evolution requires an explicit seed"):
            simulate_social_evolution(gen.cycle_graph(8), rounds=2)

    def test_discover_group_rejects_none(self):
        from repro.social.group_discovery import discover_group

        with pytest.raises(ValueError, match="discover_group requires an explicit seed"):
            discover_group(gen.cycle_graph(10), k=4)

    def test_deterministic_families_still_work_without_rng(self):
        assert gen.make_family("cycle", 8).n == 8
