"""Unit tests for graph property computations (the paper's Table 1 quantities)."""

import pytest

from repro.graphs import generators as gen
from repro.graphs import properties as props
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph


class TestDistances:
    def test_bfs_distances_path(self):
        g = gen.path_graph(5)
        dist = props.bfs_distances(g, 0)
        assert dist.tolist() == [0, 1, 2, 3, 4]

    def test_bfs_distances_unreachable(self):
        g = ArrayGraph(4, [(0, 1)])
        dist = props.bfs_distances(g, 0)
        assert dist[1] == 1 and dist[2] == -1 and dist[3] == -1

    def test_bfs_directed_follows_out_edges(self):
        g = ArrayDiGraph(3, [(0, 1), (1, 2)])
        assert props.bfs_distances(g, 0).tolist() == [0, 1, 2]
        assert props.bfs_distances(g, 2).tolist() == [-1, -1, 0]

    def test_neighborhood_at_distance(self):
        g = gen.path_graph(6)
        assert props.neighborhood_at_distance(g, 0, 2) == {2}
        assert props.neighborhood_at_distance(g, 2, 1) == {1, 3}
        assert props.neighborhood_at_distance(g, 0, 0) == {0}
        with pytest.raises(ValueError):
            props.neighborhood_at_distance(g, 0, -1)

    def test_neighborhood_within_distance(self):
        g = gen.path_graph(6)
        assert props.neighborhood_within_distance(g, 0, 3) == {1, 2, 3}
        assert props.neighborhood_within_distance(g, 0, 0) == set()


class TestTies:
    def test_degree_into_set(self):
        g = gen.star_graph(5)
        assert props.degree_into_set(g, 0, {1, 2, 3}) == 3
        assert props.degree_into_set(g, 1, {2, 3}) == 0

    def test_strongly_weakly_tied(self):
        g = gen.complete_graph(6)
        target = {0, 1, 2}
        # node 5 has 3 edges into {0,1,2}; with delta0 = 5, threshold is 2.5
        assert props.is_strongly_tied(g, 5, target, delta0=5)
        assert not props.is_weakly_tied(g, 5, target, delta0=5)
        # with delta0 = 8, threshold 4 > 3 edges
        assert props.is_weakly_tied(g, 5, target, delta0=8)


class TestConnectivity:
    def test_is_connected(self):
        assert props.is_connected(gen.cycle_graph(5))
        assert props.is_connected(ArrayGraph(1))
        assert not props.is_connected(ArrayGraph(3, [(0, 1)]))

    def test_connected_components(self):
        g = ArrayGraph(5, [(0, 1), (2, 3)])
        comps = props.connected_components(g)
        assert sorted(map(tuple, comps)) == [(0, 1), (2, 3), (4,)]

    def test_weak_strong_connectivity(self):
        path = ArrayDiGraph(3, [(0, 1), (1, 2)])
        assert props.is_weakly_connected(path)
        assert not props.is_strongly_connected(path)
        cycle = ArrayDiGraph(3, [(0, 1), (1, 2), (2, 0)])
        assert props.is_strongly_connected(cycle)
        assert props.is_strongly_connected(ArrayDiGraph(1))


class TestGlobalStats:
    def test_diameter_and_eccentricity(self):
        g = gen.path_graph(5)
        assert props.eccentricity(g, 0) == 4
        assert props.eccentricity(g, 2) == 2
        assert props.diameter(g) == 4
        assert props.diameter(gen.complete_graph(4)) == 1

    def test_diameter_disconnected_raises(self):
        with pytest.raises(ValueError):
            props.diameter(ArrayGraph(3, [(0, 1)]))
        with pytest.raises(ValueError):
            props.diameter(ArrayGraph(0))

    def test_average_degree(self):
        g = gen.cycle_graph(6)
        assert props.average_degree(g) == pytest.approx(2.0)
        assert props.average_degree(ArrayGraph(0)) == 0.0

    def test_degree_histogram(self):
        g = gen.star_graph(5)
        assert props.degree_histogram(g) == {1: 4, 4: 1}

    def test_clustering_coefficient(self):
        tri = gen.complete_graph(3)
        assert props.clustering_coefficient(tri, 0) == pytest.approx(1.0)
        path = gen.path_graph(3)
        assert props.clustering_coefficient(path, 1) == pytest.approx(0.0)
        assert props.clustering_coefficient(path, 0) == 0.0  # degree < 2

    def test_average_clustering(self):
        assert props.average_clustering(gen.complete_graph(4)) == pytest.approx(1.0)
        assert props.average_clustering(gen.cycle_graph(5)) == pytest.approx(0.0)
        assert props.average_clustering(ArrayGraph(0)) == 0.0

    def test_missing_edge_pairs(self):
        g = ArrayGraph(3, [(0, 1)])
        assert props.missing_edge_pairs(g) == [(0, 2), (1, 2)]
        assert props.missing_edge_pairs(gen.complete_graph(3)) == []


class TestLemma1:
    @pytest.mark.parametrize(
        "graph",
        [
            gen.cycle_graph(10),
            gen.path_graph(9),
            gen.star_graph(7),
            gen.complete_graph(6),
            gen.grid_graph(3, 3),
            gen.hypercube_graph(3),
            gen.lollipop_graph(4, 3),
        ],
    )
    def test_lemma1_holds_on_connected_graphs(self, graph):
        # Lemma 1: |N^1 ∪ N^2 ∪ N^3 ∪ N^4| >= min(2δ, n-1) for every node.
        for u in graph.nodes():
            assert props.verify_lemma1(graph, u)
