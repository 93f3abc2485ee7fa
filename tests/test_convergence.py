"""Unit tests for the incremental degree counters behind the convergence checks."""

import numpy as np
import pytest

from repro.core.base import UpdateSemantics
from repro.core.directed import DirectedTwoHopWalk
from repro.core.pull import PullDiscovery
from repro.core.push import PushDiscovery
from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen


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
