"""Unit tests for the stopping predicates and the incremental counters behind them."""

import numpy as np
import pytest

from repro.core import convergence as conv
from repro.core.base import UpdateSemantics
from repro.core.directed import DirectedTwoHopWalk
from repro.core.pull import PullDiscovery
from repro.core.push import PushDiscovery
from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen


class TestPredicates:
    def test_complete_graph_reached_undirected(self):
        proc = PushDiscovery(gen.complete_graph(4), rng=0)
        assert conv.complete_graph_reached(proc)
        proc2 = PushDiscovery(gen.cycle_graph(5), rng=0)
        assert not conv.complete_graph_reached(proc2)

    def test_complete_graph_reached_directed(self):
        proc = DirectedTwoHopWalk(dgen.complete_digraph(4), rng=0)
        assert conv.complete_graph_reached(proc)
        proc2 = DirectedTwoHopWalk(dgen.directed_cycle(4), rng=0)
        assert not conv.complete_graph_reached(proc2)

    def test_closure_reached_delegates_to_process(self):
        proc = DirectedTwoHopWalk(dgen.complete_digraph(3), rng=0)
        assert conv.closure_reached(proc)
        proc2 = DirectedTwoHopWalk(dgen.directed_path(4), rng=0)
        assert not conv.closure_reached(proc2)

    def test_min_degree_reached(self):
        proc = PushDiscovery(gen.cycle_graph(6), rng=0)
        assert conv.min_degree_reached(2)(proc)
        assert not conv.min_degree_reached(3)(proc)

    def test_min_degree_reached_directed_uses_out_degree(self):
        proc = DirectedTwoHopWalk(dgen.directed_cycle(5), rng=0)
        assert conv.min_degree_reached(1)(proc)
        assert not conv.min_degree_reached(2)(proc)

    def test_edge_count_reached(self):
        proc = PushDiscovery(gen.cycle_graph(6), rng=0)
        assert conv.edge_count_reached(6)(proc)
        assert not conv.edge_count_reached(7)(proc)

    def test_rounds_elapsed(self):
        proc = PushDiscovery(gen.cycle_graph(6), rng=0)
        pred = conv.rounds_elapsed(2)
        assert not pred(proc)
        proc.step()
        proc.step()
        assert pred(proc)

    def test_any_of_all_of(self):
        proc = PushDiscovery(gen.cycle_graph(6), rng=0)
        true_pred = conv.edge_count_reached(1)
        false_pred = conv.edge_count_reached(1000)
        assert conv.any_of(true_pred, false_pred)(proc)
        assert not conv.all_of(true_pred, false_pred)(proc)
        assert conv.all_of(true_pred, true_pred)(proc)

    def test_predicate_used_in_run(self):
        g = gen.cycle_graph(12)
        proc = PushDiscovery(g, rng=1)
        result = proc.run(10_000, until=conv.min_degree_reached(4))
        assert g.min_degree() >= 4
        assert result.converged


class TestIncrementalCounters:
    """The cached degree/min-degree counters track the graph exactly."""

    @pytest.mark.parametrize("process_cls", [PushDiscovery, PullDiscovery])
    def test_degree_view_tracks_graph_every_round(self, process_cls):
        proc = process_cls(gen.cycle_graph(16), rng=7)
        assert np.array_equal(proc.degree_view(), proc.graph.degrees())
        assert proc.cached_min_degree() == proc.graph.min_degree()
        for _ in range(40):
            proc.step()
            assert np.array_equal(proc.degree_view(), proc.graph.degrees())
            assert proc.cached_min_degree() == proc.graph.min_degree()

    def test_degree_view_tracks_directed_out_degrees(self):
        proc = DirectedTwoHopWalk(dgen.directed_cycle(12), rng=3)
        for _ in range(30):
            proc.step()
            assert np.array_equal(proc.degree_view(), proc.graph.out_degrees())
            assert proc.cached_min_degree() == int(proc.graph.out_degrees().min())

    def test_degree_view_tracks_sequential_semantics(self):
        proc = PushDiscovery(gen.cycle_graph(10), rng=5, semantics=UpdateSemantics.SEQUENTIAL)
        for _ in range(25):
            proc.step()
            assert np.array_equal(proc.degree_view(), proc.graph.degrees())
            assert proc.cached_min_degree() == proc.graph.min_degree()

    def test_cache_self_heals_after_external_mutation(self):
        """Edges added behind the engine's back are picked up via the edge count."""
        proc = PushDiscovery(gen.cycle_graph(8), rng=0)
        assert proc.cached_min_degree() == 2
        proc.graph.add_edge(0, 4)
        assert np.array_equal(proc.degree_view(), proc.graph.degrees())
        assert proc.cached_min_degree() == proc.graph.min_degree()
