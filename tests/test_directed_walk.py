"""Unit tests for the directed two-hop walk process."""

import pytest

from oracle import check_digraph_invariants
from repro.core.directed import DirectedTwoHopWalk
from repro.graphs import directed_generators as dgen
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph
from repro.graphs.closure import is_transitively_closed, transitive_closure_edges


class TestDirectedWalkBasics:
    def test_requires_directed_graph(self):
        with pytest.raises(TypeError):
            DirectedTwoHopWalk(ArrayGraph(3, [(0, 1)]))

    def test_target_closure_computed_at_start(self):
        g = dgen.directed_path(4)
        proc = DirectedTwoHopWalk(g, rng=0)
        assert proc.target_closure == transitive_closure_edges(dgen.directed_path(4))
        assert proc.missing_closure_edges() == {(0, 2), (0, 3), (1, 3)}

    def test_propose_follows_out_edges(self, rng):
        g = dgen.directed_cycle(5)
        proc = DirectedTwoHopWalk(g, rng=rng)
        for u in range(5):
            edge = proc.propose(u)
            # on a directed cycle the two-hop endpoint is exactly u+2
            assert edge == (u, (u + 2) % 5)

    def test_node_without_out_edges_proposes_none(self, rng):
        g = dgen.directed_path(3)
        proc = DirectedTwoHopWalk(g, rng=rng)
        assert proc.propose(2) is None

    def test_two_hop_back_to_self_is_no_proposal(self, rng):
        g = ArrayDiGraph(2, [(0, 1), (1, 0)])
        proc = DirectedTwoHopWalk(g, rng=rng)
        assert proc.propose(0) is None
        assert proc.is_converged()  # closure is already present

    def test_missing_counter_tracks_added_edges(self):
        g = dgen.directed_path(4)
        proc = DirectedTwoHopWalk(g, rng=1)
        before = len(proc.missing_closure_edges())
        proc.apply_edge((0, 2))
        assert len(proc.missing_closure_edges()) == before - 1

    def test_non_closure_edge_does_not_affect_counter(self):
        # Adding an edge not in the target closure (impossible for the real
        # process, but apply_edge is public) must not corrupt the counter.
        g = dgen.directed_path(4)
        proc = DirectedTwoHopWalk(g, rng=1)
        before = proc.missing_closure_edges()
        proc.apply_edge((3, 0))
        assert proc.missing_closure_edges() == before


class TestDirectedWalkConvergence:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: dgen.directed_cycle(8),
            lambda: dgen.bidirected_path(6),
            lambda: dgen.directed_path(6),
            lambda: dgen.layered_dag(3, 3),
            lambda: dgen.thm15_strong_lower_bound(8),
            lambda: dgen.thm14_weak_lower_bound(8),
        ],
    )
    def test_converges_to_transitive_closure(self, graph_factory):
        graph = graph_factory()
        target = transitive_closure_edges(graph)
        proc = DirectedTwoHopWalk(graph, rng=5)
        result = proc.run_to_convergence()
        assert result.converged
        for u, v in target:
            assert graph.has_edge(u, v)
        assert is_transitively_closed(graph)
        assert check_digraph_invariants(graph) == []

    def test_strongly_connected_converges_to_complete_digraph(self):
        g = dgen.thm15_strong_lower_bound(8)
        proc = DirectedTwoHopWalk(g, rng=3)
        proc.run_to_convergence()
        assert g.number_of_edges() == 8 * 7

    def test_determinism(self):
        runs = []
        for _ in range(2):
            g = dgen.directed_cycle(10)
            runs.append(DirectedTwoHopWalk(g, rng=77).run_to_convergence().rounds)
        assert runs[0] == runs[1]

    def test_edges_never_leave_initial_closure(self):
        # The process can only add edges (u, w) where w is reachable from u
        # in G_0, so the final edge set is contained in the target closure.
        g = dgen.layered_dag(3, 2)
        initial_edges = set(g.edges())
        proc = DirectedTwoHopWalk(g, rng=9)
        target = proc.target_closure
        proc.run_to_convergence()
        assert set(g.edges()) <= (target | initial_edges)

    def test_default_round_cap_quadratic(self):
        g = dgen.directed_cycle(16)
        proc = DirectedTwoHopWalk(g, rng=0)
        assert proc.default_round_cap() >= 16 * 16
