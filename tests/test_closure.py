"""Unit tests for transitive closure / reachability utilities."""

import numpy as np
import pytest

from repro.graphs import bitset, closure
from repro.graphs import directed_generators as dgen
from repro.simulation.engine import make_process


class TestReachability:
    def test_reachable_from_path(self):
        g = dgen.directed_path(4)
        assert closure.reachable_from(g, 0) == {1, 2, 3}
        assert closure.reachable_from(g, 2) == {3}
        assert closure.reachable_from(g, 3) == set()

    def test_reachable_from_cycle_includes_self(self):
        g = dgen.directed_cycle(4)
        assert closure.reachable_from(g, 0) == {0, 1, 2, 3}

    def test_reachability_matrix(self):
        g = dgen.directed_path(3)
        mat = closure.reachability_matrix(g)
        assert mat[0, 2] and mat[0, 1] and mat[1, 2]
        assert not mat[2, 0]
        assert not mat[0, 0]  # no cycle through 0

    def test_reachability_matrix_cycle_diagonal(self):
        g = dgen.directed_cycle(3)
        mat = closure.reachability_matrix(g)
        assert mat.all()


class TestClosure:
    def test_transitive_closure_edges_path(self):
        g = dgen.directed_path(4)
        edges = closure.transitive_closure_edges(g)
        assert edges == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}

    def test_transitive_closure_graph(self):
        g = dgen.directed_cycle(4)
        tc = closure.transitive_closure_graph(g)
        assert tc.number_of_edges() == 4 * 3  # complete digraph

    def test_closure_deficit(self):
        g = dgen.directed_path(3)
        target = closure.transitive_closure_edges(g)
        assert closure.closure_deficit(g, target) == [(0, 2)]
        g.add_edge(0, 2)
        assert closure.closure_deficit(g, target) == []

    def test_is_transitively_closed(self):
        g = dgen.directed_path(3)
        assert not closure.is_transitively_closed(g)
        g.add_edge(0, 2)
        assert closure.is_transitively_closed(g)
        assert closure.is_transitively_closed(dgen.complete_digraph(4))

    def test_closure_of_thm15_is_complete_digraph(self):
        g = dgen.thm15_strong_lower_bound(8)
        edges = closure.transitive_closure_edges(g)
        assert len(edges) == 8 * 7  # strongly connected -> closure is complete


class TestClosureTarget:
    """``closure_target_bits``: the closure without its diagonal, one helper for
    every closure-terminated process."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: dgen.directed_path(5),
            lambda: dgen.directed_cycle(5),
            lambda: dgen.layered_dag(3, 2),
            lambda: dgen.thm15_strong_lower_bound(8),
        ],
        ids=["path", "cycle", "layered_dag", "thm15_strong"],
    )
    def test_bits_are_the_off_diagonal_closure(self, make):
        g = make()
        target = closure.closure_target_bits(g)
        mat = closure.reachability_matrix_bfs(g)
        np.fill_diagonal(mat, False)
        assert np.array_equal(bitset.unpack_bool_matrix(target, g.n), mat)

    def test_returns_a_new_array(self):
        g = dgen.directed_cycle(4)
        target = closure.closure_target_bits(g)
        target[:] = 0
        assert closure.transitive_closure_edges(g) == {
            (u, v) for u in range(4) for v in range(4) if u != v
        }
        assert g.number_of_edges() == 4

    @pytest.mark.parametrize("name", ["directed_pull", "pointer_jump_directed"])
    def test_directed_processes_start_from_it(self, name):
        g = dgen.layered_dag(3, 3)
        expected = closure.closure_target_bits(g)
        process = make_process(name, g, rng=0)
        assert np.array_equal(process._target_bits, expected)
        missing = expected & ~closure.adjacency_bits(g)
        assert process._deficit == bitset.count_total(missing)
