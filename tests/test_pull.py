"""Unit tests for the pull (two-hop walk) process."""

import pytest

from oracle import check_graph_invariants
from repro.core.base import UpdateSemantics
from repro.core.pull import PullDiscovery
from repro.graphs import generators as gen
from repro.graphs import properties as props
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph


class TestPullBasics:
    def test_requires_undirected_graph(self):
        with pytest.raises(TypeError):
            PullDiscovery(ArrayDiGraph(3, [(0, 1)]))

    def test_propose_endpoint_is_within_two_hops(self, small_cycle, rng):
        proc = PullDiscovery(small_cycle, rng=rng)
        two_hop = props.neighborhood_within_distance(small_cycle, 0, 2) | {0}
        for _ in range(50):
            edge = proc.propose(0)
            if edge is None:
                continue
            u, w = edge
            assert u == 0
            assert w in two_hop and w != 0

    def test_isolated_node_proposes_none(self, rng):
        g = ArrayGraph(3, [(1, 2)])
        proc = PullDiscovery(g, rng=rng)
        assert proc.propose(0) is None

    def test_walk_returning_home_is_no_proposal(self, rng):
        # On a single edge the two-hop walk always returns to the start.
        g = ArrayGraph(2, [(0, 1)])
        proc = PullDiscovery(g, rng=rng)
        assert proc.propose(0) is None
        assert proc.propose(1) is None

    def test_two_node_graph_is_already_converged(self, rng):
        g = ArrayGraph(2, [(0, 1)])
        proc = PullDiscovery(g, rng=rng)
        assert proc.is_converged()

    def test_step_keeps_graph_valid(self, small_star, rng):
        proc = PullDiscovery(small_star, rng=rng)
        for _ in range(10):
            proc.step()
        assert check_graph_invariants(small_star) == []

    def test_message_accounting_three_per_node(self, small_cycle, rng):
        proc = PullDiscovery(small_cycle, rng=rng)
        result = proc.step()
        assert result.messages_sent == 3 * small_cycle.n


class TestPullConvergence:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: gen.cycle_graph(10),
            lambda: gen.path_graph(10),
            lambda: gen.star_graph(10),
            lambda: gen.lollipop_graph(5, 4),
            lambda: gen.grid_graph(3, 3),
        ],
    )
    def test_converges_to_complete_graph(self, graph_factory):
        graph = graph_factory()
        proc = PullDiscovery(graph, rng=17)
        result = proc.run_to_convergence()
        assert result.converged
        assert graph.is_complete()

    def test_determinism_same_seed(self):
        runs = []
        for _ in range(2):
            g = gen.path_graph(12)
            runs.append(PullDiscovery(g, rng=99).run_to_convergence().rounds)
        assert runs[0] == runs[1]

    def test_sequential_semantics_converges(self):
        g = gen.star_graph(10)
        proc = PullDiscovery(g, rng=3, semantics=UpdateSemantics.SEQUENTIAL)
        assert proc.run_to_convergence().converged

    def test_added_edges_always_incident_to_proposer(self):
        g = gen.cycle_graph(12)
        proc = PullDiscovery(g, rng=21)
        result = proc.step()
        # every pull proposal has the proposing node as one endpoint
        for u, w in result.proposed_edges:
            assert 0 <= u < 12 and 0 <= w < 12 and u != w

    def test_star_center_becomes_less_central(self):
        # On a star, pulls quickly connect leaves to each other.
        g = gen.star_graph(12)
        proc = PullDiscovery(g, rng=2)
        proc.run(30)
        leaf_edges = sum(
            1 for u, v in g.edges() if u != 0 and v != 0
        )
        assert leaf_edges > 0
