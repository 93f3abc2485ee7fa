"""Pinning the silent-no-op guard bug class shut.

Two seed-era layers gated on the old list graph class:
``EvolutionTracker`` silently recorded zero snapshots on array graphs,
and ``NetworkSimulator`` rejected ``ArrayGraph`` topologies outright —
the same failure mode earlier fixes removed from the baselines and the
activation schedules.  These tests run every recorder/callback
(``EvolutionTracker``, the E8 degree-growth watcher, ``MetricsRecorder``)
over array graphs, the one substrate, and assert non-empty output.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.degree_growth import _MinDegreeWatcher
from repro.core.metrics import MetricsRecorder
from repro.graphs import generators as gen
from repro.graphs.array_adjacency import ArrayDiGraph
from repro.network import NetworkSimulator
from repro.simulation.engine import make_process
from repro.social.evolution import EvolutionTracker, simulate_social_evolution
from repro.social.group_discovery import discover_group


def run_with_callback(callback, n=16, rounds=12, seed=3):
    proc = make_process("push", gen.cycle_graph(n), rng=seed)
    proc.run(rounds, callbacks=[callback])
    return proc


class TestRecorders:
    def test_evolution_tracker_records_snapshots(self):
        """Fails before the fix: array graphs recorded zero snapshots."""
        tracker = EvolutionTracker(every=4, probe_nodes=6, rng=1)
        run_with_callback(tracker)
        assert len(tracker.snapshots) > 0
        assert all(s.num_edges > 0 for s in tracker.snapshots)

    def test_metrics_recorder_records(self):
        recorder = MetricsRecorder()
        run_with_callback(recorder)
        assert len(recorder.history) > 0
        assert recorder.edges_series().max() > 0

    def test_degree_growth_watcher_records(self):
        watcher = _MinDegreeWatcher([3, 4])
        run_with_callback(watcher, rounds=60)
        assert watcher.hit_round  # at least one threshold reached

    def test_simulate_social_evolution_records(self):
        snaps = simulate_social_evolution(gen.cycle_graph(14), rounds=12, every=4, seed=2)
        assert len(snaps) >= 2  # baseline + at least one recorded round


class TestNetworkSimulatorGraphs:
    def test_accepts_array_graph_topology(self):
        """Fails before the fix: TypeError for ArrayGraph."""
        sim = NetworkSimulator(gen.cycle_graph(10), protocol="push", rng=3)
        stats = sim.run_to_convergence(max_rounds=20_000)
        assert sim.is_converged()
        assert stats.discoveries > 0

    def test_still_rejects_directed_graphs(self):
        with pytest.raises(TypeError):
            NetworkSimulator(ArrayDiGraph(3, [(0, 1)]))


class TestGroupDiscovery:
    def test_discover_group_runs(self):
        host = gen.barabasi_albert_graph(48, 3, np.random.default_rng(0))
        result = discover_group(host, k=10, process="push", seed=5)
        assert result.converged
        assert result.group_size == 10
