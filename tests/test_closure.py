"""Unit tests for transitive closure / reachability utilities."""

import pytest

from repro.graphs import directed_generators as dgen
from repro.graphs.array_adjacency import ArrayDiGraph
from repro.graphs import closure


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


class TestIncrementalClosure:
    """IncrementalClosure ≡ full Warshall recompute under random edge batches."""

    @staticmethod
    def _random_case(seed):
        import numpy as np
        from repro.graphs import bitset

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 14))
        density = rng.random() * 0.3
        mat = rng.random((n, n)) < density
        np.fill_diagonal(mat, False)
        return rng, n, bitset.pack_bool_matrix(mat)

    def test_matches_recompute_under_random_batches(self):
        import numpy as np
        from repro.graphs import bitset

        for seed in range(25):
            rng, n, bits = self._random_case(seed)
            inc = closure.IncrementalClosure(bits.copy(), n)
            current = bits.copy()
            for _ in range(int(rng.integers(1, 5))):
                batch = int(rng.integers(0, 2 * n + 1))
                us = rng.integers(0, n, size=batch).astype(np.int64)
                vs = rng.integers(0, n, size=batch).astype(np.int64)
                keep = us != vs
                us, vs = us[keep], vs[keep]
                if us.size:
                    bitset.set_bits(current, us, vs)
                inc.add_edges(us, vs)
                expected = bitset.transitive_closure_bits(current, n)
                assert np.array_equal(inc.closure_bits(), expected), (
                    f"seed={seed}: incremental closure diverged from recompute"
                )

    def test_in_closure_edges_are_noops(self):
        import numpy as np

        g = dgen.thm15_strong_lower_bound(8)
        inc = closure.IncrementalClosure.from_graph(g)
        before = inc.closure_bits().copy()
        # every pair is in the strong construction's closure already
        us, vs = np.nonzero(~np.eye(8, dtype=bool))
        assert inc.add_edges(us.astype(np.int64), vs.astype(np.int64)) == 0
        assert np.array_equal(inc.closure_bits(), before)

    def test_scalar_edge_extends_closure(self):
        g = dgen.directed_path(3)  # 0 -> 1 -> 2
        inc = closure.IncrementalClosure.from_graph(g)
        assert inc.add_edge(2, 0)  # closes the cycle
        mat = closure.reachability_matrix(dgen.directed_cycle(3))
        import numpy as np
        from repro.graphs import bitset

        assert np.array_equal(bitset.unpack_bool_matrix(inc.closure_bits(), 3), mat)

    def test_deficit_count_matches_closure_deficit(self):
        g = dgen.layered_dag(3, 2)
        inc = closure.IncrementalClosure.from_graph(g)
        expected = len(closure.closure_deficit(g, closure.transitive_closure_edges(g)))
        assert inc.deficit_count(closure.adjacency_bits(g)) == expected

    def test_batch_with_internal_dependencies(self):
        import numpy as np
        from repro.graphs import bitset

        # (0,1) then (1,2) in ONE batch: the second edge must see the first.
        inc = closure.IncrementalClosure(bitset.zeros(3, 3), 3)
        inc.add_edges(np.array([0, 1]), np.array([1, 2]))
        expected = bitset.transitive_closure_bits(
            closure.adjacency_bits(ArrayDiGraph(3, [(0, 1), (1, 2)])), 3
        )
        assert np.array_equal(inc.closure_bits(), expected)

    def test_endpoint_length_mismatch_raises(self):
        import numpy as np
        from repro.graphs import bitset

        with pytest.raises(ValueError, match="disagree"):
            bitset.closure_add_edges(bitset.zeros(3, 3), np.array([0]), np.array([1, 2]))
