"""Property-style randomized tests for the array graph backend.

:class:`DynamicGraph` / :class:`DynamicDiGraph` act as the oracle: every
randomized operation sequence is applied to both representations and all
observable state must agree — degrees, membership, edge sets, neighbour
row order, sampling, and the structural invariants (no self loops, no
duplicates).  Capacity doubling is crossed deliberately so growth bugs
cannot hide below the initial allocation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.adjacency import DynamicDiGraph, DynamicGraph
from repro.graphs.array_adjacency import (
    ArrayDiGraph,
    ArrayGraph,
    as_backend,
    backend_name,
)
from repro.graphs import generators as gen


def random_edge_sequence(n, count, rng):
    """A seeded edge stream with duplicates and self loops mixed in."""
    us = rng.integers(n, size=count)
    vs = rng.integers(n, size=count)
    return list(zip(us.tolist(), vs.tolist()))


class TestArrayGraphOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_add_sequence_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        oracle = DynamicGraph(n)
        array = ArrayGraph(n)
        for u, v in random_edge_sequence(n, 4 * n, rng):
            assert oracle.add_edge(u, v) == array.add_edge(u, v)
        assert array.number_of_edges() == oracle.number_of_edges()
        assert array.edge_list() == oracle.edge_list()
        assert np.array_equal(array.degrees(), oracle.degrees())
        assert array.min_degree() == oracle.min_degree()
        assert array.max_degree() == oracle.max_degree()
        for u in range(n):
            # Same contents *and* same insertion order per row.
            assert array.neighbors(u).tolist() == list(oracle.neighbors(u))
        for u, v in random_edge_sequence(n, 50, rng):
            assert array.has_edge(u, v) == oracle.has_edge(u, v)
        assert np.array_equal(array.adjacency_matrix(), oracle.adjacency_matrix())
        assert array == oracle  # cross-representation equality

    @pytest.mark.parametrize("seed", range(5))
    def test_batch_add_matches_sequential_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(5, 30))
        oracle = DynamicGraph(n)
        array = ArrayGraph(n)
        for _ in range(6):
            chunk = random_edge_sequence(n, n, rng)
            assert array.add_edges_batch(chunk) == oracle.add_edges_batch(chunk)
        assert array == oracle
        for u in range(n):
            assert array.neighbors(u).tolist() == list(oracle.neighbors(u))

    def test_no_self_loops_or_duplicates_ever(self):
        rng = np.random.default_rng(3)
        g = ArrayGraph(12)
        g.add_edges_batch(random_edge_sequence(12, 300, rng))
        seen = set()
        for u in range(12):
            row = g.neighbors(u).tolist()
            assert u not in row, "self loop stored"
            assert len(row) == len(set(row)), "duplicate neighbour stored"
            for v in row:
                seen.add((min(u, v), max(u, v)))
        assert len(seen) == g.number_of_edges()

    def test_growth_across_capacity_doubling(self):
        # A star forces one node's row through every doubling boundary.
        n = 70
        g = ArrayGraph(n)
        caps = {g.capacity}
        for leaf in range(1, n):
            g.add_edge(0, leaf)
            caps.add(g.capacity)
            assert g.degree(0) == leaf
            assert g.neighbors(0).tolist() == list(range(1, leaf + 1))
        assert g.capacity >= n - 1
        assert caps == {4, 8, 16, 32, 64, 128}, "capacity must grow by doubling"
        oracle = DynamicGraph(n, [(0, leaf) for leaf in range(1, n)])
        assert g == oracle

    def test_random_neighbor_uniform_over_fixed_seed(self):
        g = as_backend(gen.star_graph(9), "array")  # hub 0, leaves 1..8
        rng = np.random.default_rng(42)
        counts = np.zeros(9, dtype=int)
        draws = 8000
        for _ in range(draws):
            counts[g.random_neighbor(0, rng)] += 1
        assert counts[0] == 0
        expected = draws / 8
        assert np.all(np.abs(counts[1:] - expected) < 5 * np.sqrt(expected))

    def test_bulk_random_neighbors_matches_list_backend_stream(self):
        base = gen.erdos_renyi_graph(30, 0.2, rng=np.random.default_rng(8))
        fast = as_backend(base, "array")
        nodes = np.arange(30)
        draws_list = base.random_neighbors(nodes, np.random.default_rng(77))
        draws_array = fast.random_neighbors(nodes, np.random.default_rng(77))
        assert np.array_equal(draws_list, draws_array)

    def test_bulk_sampling_handles_isolated_and_sentinel_nodes(self):
        g = ArrayGraph(5, [(0, 1)])
        rng = np.random.default_rng(0)
        out = g.random_neighbors(np.array([0, 2, -1, 1]), rng)
        assert out[0] == 1 and out[3] == 0
        assert out[1] == -1 and out[2] == -1

    def test_sampling_sentinels_never_read_neighbouring_rows(self):
        # Row 0 is full (degree 4 = capacity 4), node 1 is isolated and the
        # last node has a neighbour, so a flat gather that skipped the
        # masking would read row 0's last slot for node 1, or wrap a -1 node
        # to the last row.
        edges = [(0, 2), (0, 3), (0, 4), (0, 5), (5, 6)]
        base = DynamicGraph(7, edges)
        fast = ArrayGraph(7, edges)
        assert fast.capacity == 4
        nodes = np.array([1, -1, 0, 6, 1, -1])
        for seed in range(20):
            expected = base.random_neighbors(nodes, np.random.default_rng(seed))
            got = fast.random_neighbors(nodes, np.random.default_rng(seed))
            assert np.array_equal(got, expected)
            assert got[0] == got[1] == got[4] == got[5] == -1

    def test_copy_is_independent(self):
        g = as_backend(gen.cycle_graph(10), "array")
        h = g.copy()
        h.add_edge(0, 5)
        assert not g.has_edge(0, 5)
        assert h.has_edge(0, 5)

    def test_roundtrip_conversions(self):
        base = gen.erdos_renyi_graph(20, 0.3, rng=np.random.default_rng(4))
        fast = as_backend(base, "array")
        assert backend_name(fast) == "array"
        back = as_backend(fast, "list")
        assert backend_name(back) == "list"
        assert back == base
        assert as_backend(fast, "array") is fast  # no-op when already matching

    def test_out_of_range_nodes_rejected(self):
        g = ArrayGraph(4)
        with pytest.raises(IndexError):
            g.add_edge(0, 4)
        with pytest.raises(IndexError):
            g.add_edges_batch([(0, 9)])
        with pytest.raises(ValueError):
            g.random_neighbor(0, np.random.default_rng(0))  # isolated

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            as_backend(DynamicGraph(3), "gpu")


class TestArrayDiGraphOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_add_sequence_matches_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(5, 30))
        oracle = DynamicDiGraph(n)
        array = ArrayDiGraph(n)
        for u, v in random_edge_sequence(n, 4 * n, rng):
            assert oracle.add_edge(u, v) == array.add_edge(u, v)
        assert array.number_of_edges() == oracle.number_of_edges()
        assert array.edge_list() == oracle.edge_list()
        assert np.array_equal(array.out_degrees(), oracle.out_degrees())
        assert np.array_equal(array.in_degrees(), oracle.in_degrees())
        for u in range(n):
            assert array.out_neighbors(u).tolist() == list(oracle.out_neighbors(u))
        assert np.array_equal(array.adjacency_matrix(), oracle.adjacency_matrix())
        assert array == oracle

    @pytest.mark.parametrize("seed", range(3))
    def test_batch_add_matches_sequential_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(5, 25))
        oracle = DynamicDiGraph(n)
        array = ArrayDiGraph(n)
        for _ in range(5):
            chunk = random_edge_sequence(n, n, rng)
            assert array.add_edges_batch(chunk) == oracle.add_edges_batch(chunk)
        assert array == oracle

    def test_bulk_out_sampling_matches_list_backend_stream(self):
        from repro.graphs import directed_generators as dgen

        base = dgen.random_strongly_connected_digraph(20, rng=np.random.default_rng(6))
        fast = as_backend(base, "array")
        nodes = np.arange(20)
        a = base.random_out_neighbors(nodes, np.random.default_rng(13))
        b = fast.random_out_neighbors(nodes, np.random.default_rng(13))
        assert np.array_equal(a, b)

    def test_out_neighbors_at_gather_parity(self):
        from repro.graphs import directed_generators as dgen

        base = dgen.random_strongly_connected_digraph(15, rng=np.random.default_rng(2))
        fast = as_backend(base, "array")
        rng = np.random.default_rng(21)
        nodes = rng.integers(15, size=30)
        idx = np.where(
            base.out_degrees()[nodes] > 0,
            rng.integers(1 << 30, size=30) % np.maximum(base.out_degrees()[nodes], 1),
            -1,
        )
        a = base.out_neighbors_at(nodes, idx)
        b = fast.out_neighbors_at(nodes, idx)
        assert np.array_equal(a, b)
        assert np.all((a >= 0) == (idx >= 0))  # -1 sentinel passthrough

    def test_growth_across_capacity_doubling(self):
        n = 40
        g = ArrayDiGraph(n)
        for v in range(1, n):
            g.add_edge(0, v)
        assert g.out_degree(0) == n - 1
        assert g.capacity >= n - 1
        assert g.out_neighbors(0).tolist() == list(range(1, n))
        assert g.in_degrees().sum() == n - 1

    def test_to_undirected_forgets_direction(self):
        g = ArrayDiGraph(4, [(0, 1), (1, 0), (2, 3)])
        und = g.to_undirected()
        assert und.edge_list() == [(0, 1), (2, 3)]
