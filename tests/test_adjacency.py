"""Unit tests for the dynamic adjacency structures."""

import numpy as np
import pytest

from repro.graphs.adjacency import DynamicDiGraph, DynamicGraph


class TestDynamicGraphBasics:
    def test_empty_graph(self):
        g = DynamicGraph(5)
        assert g.n == 5
        assert g.number_of_edges() == 0
        assert g.min_degree() == 0
        assert not g.is_complete()
        assert g.missing_edges() == 10

    def test_negative_node_count_rejected(self):
        with pytest.raises(ValueError):
            DynamicGraph(-1)

    def test_add_edge_returns_true_only_when_new(self):
        g = DynamicGraph(3)
        assert g.add_edge(0, 1) is True
        assert g.add_edge(0, 1) is False
        assert g.add_edge(1, 0) is False  # same undirected edge
        assert g.number_of_edges() == 1

    def test_self_loop_rejected(self):
        g = DynamicGraph(3)
        assert g.add_edge(1, 1) is False
        assert g.number_of_edges() == 0

    def test_out_of_range_node_raises(self):
        g = DynamicGraph(3)
        with pytest.raises(IndexError):
            g.add_edge(0, 3)
        with pytest.raises(IndexError):
            g.degree(5)

    def test_degrees_and_neighbors_symmetric(self):
        g = DynamicGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.degree(1) == 2
        assert set(g.neighbors(1)) == {0, 2}
        assert 1 in g.neighbors(0)
        assert g.degrees().tolist() == [1, 2, 2, 1]

    def test_min_max_degree(self):
        g = DynamicGraph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.min_degree() == 1
        assert g.max_degree() == 3

    def test_has_edge(self):
        g = DynamicGraph(3, [(0, 2)])
        assert g.has_edge(0, 2)
        assert g.has_edge(2, 0)
        assert not g.has_edge(0, 1)
        assert not g.has_edge(1, 1)

    def test_edge_list_sorted_canonical(self):
        g = DynamicGraph(4, [(3, 2), (1, 0)])
        assert g.edge_list() == [(0, 1), (2, 3)]

    def test_is_complete_and_missing_edges(self):
        g = DynamicGraph(3, [(0, 1), (1, 2)])
        assert not g.is_complete()
        assert g.missing_edges() == 1
        g.add_edge(0, 2)
        assert g.is_complete()
        assert g.missing_edges() == 0

    def test_add_edges_from_counts_new_only(self):
        g = DynamicGraph(4)
        added = g.add_edges_from([(0, 1), (1, 0), (2, 3), (2, 2)])
        assert added == 2

    def test_equality(self):
        a = DynamicGraph(3, [(0, 1)])
        b = DynamicGraph(3, [(1, 0)])
        c = DynamicGraph(3, [(1, 2)])
        assert a == b
        assert a != c
        assert a != "not a graph"

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(DynamicGraph(2))

    def test_repr(self):
        assert repr(DynamicGraph(3, [(0, 1)])) == "DynamicGraph(n=3, m=1)"


class TestDynamicGraphSampling:
    def test_random_neighbor_uniform(self, rng):
        g = DynamicGraph(4, [(0, 1), (0, 2), (0, 3)])
        counts = {1: 0, 2: 0, 3: 0}
        for _ in range(3000):
            counts[g.random_neighbor(0, rng)] += 1
        for c in counts.values():
            assert 800 < c < 1200

    def test_random_neighbor_isolated_raises(self, rng):
        g = DynamicGraph(2)
        with pytest.raises(ValueError):
            g.random_neighbor(0, rng)

    def test_random_neighbor_pair_with_replacement(self, rng):
        g = DynamicGraph(3, [(0, 1), (0, 2)])
        seen_equal = False
        for _ in range(200):
            v, w = g.random_neighbor_pair(0, rng)
            assert v in (1, 2) and w in (1, 2)
            if v == w:
                seen_equal = True
        assert seen_equal  # with-replacement sampling must allow v == w

    def test_random_neighbor_pair_isolated_raises(self, rng):
        g = DynamicGraph(2)
        with pytest.raises(ValueError):
            g.random_neighbor_pair(1, rng)


class TestDynamicGraphConversions:
    def test_adjacency_matrix_roundtrip(self):
        g = DynamicGraph(4, [(0, 1), (2, 3), (1, 3)])
        mat = g.adjacency_matrix()
        assert mat.shape == (4, 4)
        assert mat[0, 1] and mat[1, 0]
        assert not mat.diagonal().any()
        g2 = DynamicGraph.from_adjacency_matrix(mat)
        assert g2 == g

    def test_from_adjacency_matrix_rejects_non_square(self):
        with pytest.raises(ValueError):
            DynamicGraph.from_adjacency_matrix(np.zeros((2, 3)))

    def test_copy_is_independent(self):
        g = DynamicGraph(3, [(0, 1)])
        c = g.copy()
        c.add_edge(1, 2)
        assert g.number_of_edges() == 1
        assert c.number_of_edges() == 2

    def test_subgraph_relabels_and_filters(self):
        g = DynamicGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        sub, mapping = g.subgraph([1, 2, 3])
        assert sub.n == 3
        assert sub.number_of_edges() == 2
        assert mapping == {1: 0, 2: 1, 3: 2}

    def test_subgraph_duplicate_nodes_rejected(self):
        g = DynamicGraph(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.subgraph([0, 0, 1])

    def test_networkx_roundtrip(self):
        nx = pytest.importorskip("networkx")
        g = DynamicGraph(4, [(0, 1), (1, 2), (2, 3)])
        nx_graph = g.to_networkx()
        assert nx_graph.number_of_edges() == 3
        back = DynamicGraph.from_networkx(nx_graph)
        assert back == g


class TestDynamicDiGraph:
    def test_empty(self):
        g = DynamicDiGraph(4)
        assert g.n == 4
        assert g.number_of_edges() == 0
        assert g.out_degree(0) == 0
        assert g.in_degree(0) == 0

    def test_add_edge_directed_distinct_directions(self):
        g = DynamicDiGraph(3)
        assert g.add_edge(0, 1) is True
        assert g.add_edge(1, 0) is True  # opposite direction is a different edge
        assert g.add_edge(0, 1) is False
        assert g.number_of_edges() == 2

    def test_self_loop_rejected(self):
        g = DynamicDiGraph(2)
        assert g.add_edge(0, 0) is False

    def test_degrees(self):
        g = DynamicDiGraph(3, [(0, 1), (0, 2), (1, 2)])
        assert g.out_degree(0) == 2
        assert g.in_degree(2) == 2
        assert g.out_degrees().tolist() == [2, 1, 0]
        assert g.in_degrees().tolist() == [0, 1, 2]

    def test_out_neighbors(self):
        g = DynamicDiGraph(3, [(0, 1), (0, 2)])
        assert set(g.out_neighbors(0)) == {1, 2}
        assert list(g.out_neighbors(1)) == []

    def test_random_out_neighbor(self, rng):
        g = DynamicDiGraph(3, [(0, 1), (0, 2)])
        seen = {g.random_out_neighbor(0, rng) for _ in range(100)}
        assert seen == {1, 2}
        with pytest.raises(ValueError):
            g.random_out_neighbor(1, rng)

    def test_to_undirected(self):
        g = DynamicDiGraph(3, [(0, 1), (1, 0), (1, 2)])
        und = g.to_undirected()
        assert und.number_of_edges() == 2
        assert und.has_edge(0, 1) and und.has_edge(1, 2)

    def test_adjacency_matrix_and_roundtrip(self):
        g = DynamicDiGraph(3, [(0, 1), (2, 0)])
        mat = g.adjacency_matrix()
        assert mat[0, 1] and mat[2, 0]
        assert not mat[1, 0]
        assert DynamicDiGraph.from_adjacency_matrix(mat) == g

    def test_copy_independent(self):
        g = DynamicDiGraph(3, [(0, 1)])
        c = g.copy()
        c.add_edge(1, 2)
        assert g.number_of_edges() == 1
        assert c.number_of_edges() == 2

    def test_equality_and_repr(self):
        a = DynamicDiGraph(2, [(0, 1)])
        b = DynamicDiGraph(2, [(0, 1)])
        assert a == b
        assert "DynamicDiGraph" in repr(a)
        with pytest.raises(TypeError):
            hash(a)

    def test_edge_list(self):
        g = DynamicDiGraph(3, [(2, 1), (0, 1)])
        assert g.edge_list() == [(0, 1), (2, 1)]

    def test_negative_node_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DynamicDiGraph(-1)

    def test_out_of_range_node_raises(self):
        g = DynamicDiGraph(3)
        with pytest.raises(IndexError):
            g.add_edge(0, 3)
        with pytest.raises(IndexError):
            g.out_degree(-1)

    def test_add_edges_from_counts_new_only(self):
        g = DynamicDiGraph(3, [(0, 1)])
        # (0, 1) is present, (1, 1) is a self loop, (1, 0) is the new direction
        assert g.add_edges_from([(0, 1), (1, 1), (1, 0), (1, 2), (1, 2)]) == 2
        assert g.edge_list() == [(0, 1), (1, 0), (1, 2)]

    def test_from_adjacency_matrix_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            DynamicDiGraph.from_adjacency_matrix(np.zeros((2, 3), dtype=bool))

    def test_networkx_export_keeps_direction(self):
        pytest.importorskip("networkx")
        g = DynamicDiGraph(4, [(0, 1), (1, 2), (3, 0)])
        nx_graph = g.to_networkx()
        assert nx_graph.is_directed()
        assert sorted(nx_graph.nodes()) == [0, 1, 2, 3]
        assert sorted(nx_graph.edges()) == g.edge_list()
