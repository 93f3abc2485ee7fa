"""Unit tests for the per-round metrics recorder."""

import numpy as np
import pytest

from repro.core.directed import DirectedTwoHopWalk
from repro.core.metrics import COLUMNS, MetricsRecorder
from repro.core.push import PushDiscovery
from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen


class TestMetricsRecorder:
    def test_records_every_round(self):
        g = gen.cycle_graph(10)
        proc = PushDiscovery(g, rng=0)
        recorder = MetricsRecorder()
        proc.run(15, callbacks=[recorder])
        assert len(recorder) == 15
        assert recorder.as_arrays()["round_index"].tolist() == list(range(15))

    def test_entry_fields_consistent(self):
        g = gen.cycle_graph(10)
        proc = PushDiscovery(g, rng=0)
        recorder = MetricsRecorder()
        result = proc.run(5, callbacks=[recorder])
        last = {name: column[-1] for name, column in recorder.as_arrays().items()}
        assert last["num_edges"] == g.number_of_edges()
        assert last["min_degree"] == g.min_degree()
        assert last["max_degree"] == g.max_degree()
        assert last["missing_edges"] == g.missing_edges()
        assert last["mean_degree"] == pytest.approx(2 * g.number_of_edges() / g.n)
        arrays = recorder.as_arrays()
        assert arrays["edges_added"].sum() == result.total_edges_added
        assert arrays["messages_sent"].sum() == result.total_messages
        assert arrays["bits_sent"].sum() == result.total_bits

    def test_columns_in_module_order(self):
        proc = PushDiscovery(gen.cycle_graph(8), rng=0)
        recorder = MetricsRecorder()
        proc.run(3, callbacks=[recorder])
        arrays = recorder.as_arrays()
        assert tuple(arrays) == COLUMNS
        assert all(column.shape == (3,) for column in arrays.values())
        assert arrays["mean_degree"].dtype == np.float64
        assert all(
            arrays[name].dtype == np.int64 for name in COLUMNS if name != "mean_degree"
        )

    def test_directed_graph_metrics(self):
        g = dgen.directed_cycle(8)
        proc = DirectedTwoHopWalk(g, rng=0)
        recorder = MetricsRecorder()
        proc.run(4, callbacks=[recorder])
        assert len(recorder) == 4
        assert recorder.min_degree_series()[0] >= 1
        arrays = recorder.as_arrays()
        # out-degrees, and every ordered pair counts toward the missing edges
        assert arrays["max_degree"][-1] == g.out_degrees().max()
        assert arrays["missing_edges"][-1] == 8 * 7 - g.number_of_edges()

    def test_as_arrays_and_series(self):
        g = gen.cycle_graph(10)
        proc = PushDiscovery(g, rng=0)
        recorder = MetricsRecorder()
        proc.run(10, callbacks=[recorder])
        arrays = recorder.as_arrays()
        assert set(arrays) >= {"round_index", "num_edges", "min_degree"}
        assert len(arrays["num_edges"]) == 10
        assert recorder.min_degree_series().shape == (10,)
        assert np.array_equal(recorder.min_degree_series(), arrays["min_degree"])
        assert np.array_equal(recorder.edges_series(), arrays["num_edges"])
        assert (recorder.edges_series()[1:] >= recorder.edges_series()[:-1]).all()

    def test_empty_recorder(self):
        recorder = MetricsRecorder()
        assert recorder.as_arrays() == {}
        assert len(recorder) == 0
        assert recorder.min_degree_series().shape == (0,)
        assert recorder.edges_series().dtype == np.int64

    def test_clear(self):
        g = gen.cycle_graph(8)
        proc = PushDiscovery(g, rng=0)
        recorder = MetricsRecorder()
        proc.run(3, callbacks=[recorder])
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.as_arrays() == {}
