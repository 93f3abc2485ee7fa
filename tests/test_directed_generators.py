"""Unit tests for the directed graph generators and the paper's constructions."""

import numpy as np
import pytest

from repro.graphs import directed_generators as dgen
from repro.graphs import properties as props
from repro.graphs.closure import transitive_closure_edges


class TestDeterministicDirectedFamilies:
    def test_directed_path(self):
        g = dgen.directed_path(5)
        assert g.number_of_edges() == 4
        assert g.out_degree(0) == 1 and g.out_degree(4) == 0
        assert props.is_weakly_connected(g)
        assert not props.is_strongly_connected(g)

    def test_directed_cycle(self):
        g = dgen.directed_cycle(6)
        assert g.number_of_edges() == 6
        assert props.is_strongly_connected(g)
        with pytest.raises(ValueError):
            dgen.directed_cycle(1)

    def test_complete_digraph(self):
        g = dgen.complete_digraph(4)
        assert g.number_of_edges() == 12
        assert props.is_strongly_connected(g)

    def test_bidirected_path_cycle_star(self):
        p = dgen.bidirected_path(4)
        assert p.number_of_edges() == 6
        assert props.is_strongly_connected(p)
        c = dgen.bidirected_cycle(5)
        assert c.number_of_edges() == 10
        assert props.is_strongly_connected(c)
        s = dgen.bidirected_star(5)
        assert s.number_of_edges() == 8
        assert props.is_strongly_connected(s)

    def test_layered_dag(self):
        g = dgen.layered_dag(3, 2)
        assert g.n == 6
        assert g.number_of_edges() == 2 * 4
        assert props.is_weakly_connected(g)
        assert not props.is_strongly_connected(g)


class TestDirectedArgumentValidation:
    """Every directed constructor refuses sizes that cannot describe its graph."""

    @pytest.mark.parametrize(
        "build, message",
        [
            pytest.param(lambda: dgen.directed_path(0), "at least 1 node", id="path-0"),
            pytest.param(lambda: dgen.complete_digraph(0), "at least 1 node", id="complete-0"),
            pytest.param(
                lambda: dgen.bidirected_path(0), "at least 1 node", id="bidirected-path-0"
            ),
            pytest.param(
                lambda: dgen.bidirected_cycle(2), "at least 3 nodes", id="bidirected-cycle-2"
            ),
            pytest.param(
                lambda: dgen.bidirected_star(1), "at least 2 nodes", id="bidirected-star-1"
            ),
            pytest.param(lambda: dgen.layered_dag(0, 3), "must be positive", id="dag-layers-0"),
            pytest.param(lambda: dgen.layered_dag(3, 0), "must be positive", id="dag-width-0"),
            pytest.param(
                lambda: dgen.random_strongly_connected_digraph(1, rng=0),
                "at least 2 nodes",
                id="strong-1",
            ),
            pytest.param(
                lambda: dgen.thm14_missing_edges(10), "divisible by 4", id="thm14-missing-10"
            ),
        ],
    )
    def test_rejects_invalid_arguments(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_random_families_accept_int_seed(self):
        a = dgen.random_strongly_connected_digraph(16, 0.2, rng=7)
        b = dgen.random_strongly_connected_digraph(16, 0.2, rng=np.random.default_rng(7))
        assert a.edge_list() == b.edge_list()


class TestRandomDirectedFamilies:
    def test_random_digraph(self, rng):
        g = dgen.random_digraph(15, 0.2, rng)
        assert g.n == 15
        assert all(not g.has_edge(u, u) for u in g.nodes())
        with pytest.raises(ValueError):
            dgen.random_digraph(5, -0.1, rng)

    def test_random_strongly_connected(self, rng):
        g = dgen.random_strongly_connected_digraph(20, 0.05, rng)
        assert props.is_strongly_connected(g)

    def test_random_tournament(self, rng):
        g = dgen.random_tournament(8, rng)
        assert g.number_of_edges() == 8 * 7 // 2
        for u in range(8):
            for v in range(u + 1, 8):
                assert g.has_edge(u, v) != g.has_edge(v, u)


class TestPaperDirectedConstructions:
    def test_thm14_structure(self):
        n = 16
        g = dgen.thm14_weak_lower_bound(n)
        assert g.n == n
        assert props.is_weakly_connected(g)
        assert not props.is_strongly_connected(g)
        # chain edges present, shortcuts absent
        for i in range(n // 4):
            assert g.has_edge(3 * i, 3 * i + 1)
            assert g.has_edge(3 * i + 1, 3 * i + 2)
            assert not g.has_edge(3 * i, 3 * i + 2)
            for j in range(3 * n // 4, n):
                assert g.has_edge(3 * i, j)
                assert g.has_edge(3 * i + 1, j)

    def test_thm14_missing_edges_match_closure_deficit(self):
        n = 16
        g = dgen.thm14_weak_lower_bound(n)
        closure = transitive_closure_edges(g)
        deficit = sorted(e for e in closure if not g.has_edge(*e))
        assert deficit == sorted(dgen.thm14_missing_edges(n))

    def test_thm14_rejects_bad_n(self):
        with pytest.raises(ValueError):
            dgen.thm14_weak_lower_bound(10)
        with pytest.raises(ValueError):
            dgen.thm14_weak_lower_bound(4)

    def test_thm15_structure(self):
        n = 12
        g = dgen.thm15_strong_lower_bound(n)
        half = n // 2
        assert props.is_strongly_connected(g)
        # complete digraph on the first half
        for i in range(half):
            for j in range(half):
                if i != j:
                    assert g.has_edge(i, j)
        # forward path through the second half
        for i in range(half - 1, n - 1):
            assert g.has_edge(i, i + 1)
        # back edges from second half to all lower-indexed nodes
        for i in range(half, n):
            for j in range(i):
                assert g.has_edge(i, j)
        # forward shortcut edges (i, i+2) for i >= half-1 are absent initially
        assert not g.has_edge(half - 1, half + 1)

    def test_thm15_out_degree_at_least_half(self):
        g = dgen.thm15_strong_lower_bound(12)
        assert int(g.out_degrees().min()) >= 12 // 2 - 1

    def test_thm15_rejects_bad_n(self):
        with pytest.raises(ValueError):
            dgen.thm15_strong_lower_bound(7)
        with pytest.raises(ValueError):
            dgen.thm15_strong_lower_bound(2)


class TestDirectedRegistry:
    @pytest.mark.parametrize("name", dgen.directed_family_names())
    def test_every_family_builds(self, name, rng):
        g = dgen.make_directed_family(name, 16, rng)
        assert g.n >= 8
        assert g.number_of_edges() > 0

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError):
            dgen.make_directed_family("nope", 8)
