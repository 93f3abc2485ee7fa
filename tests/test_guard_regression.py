"""Pinning the silent-no-op guard bug class shut.

Two seed-era layers still gated on ``isinstance(graph, DynamicGraph)``:
``EvolutionTracker`` silently recorded zero snapshots on the array backend,
and ``NetworkSimulator`` rejected ``ArrayGraph`` topologies outright —
the same failure mode earlier fixes removed from the baselines and the
activation schedules.  These tests run every recorder/callback
(``EvolutionTracker``, the E8 degree-growth watcher, ``MetricsRecorder``,
``TraceRecorder``) over **both** backends and assert non-empty, matching
output.  The ``capability-guard`` rule of ``tests/test_source_rules.py``
keeps any ``isinstance(.., DynamicGraph)`` guard from returning outside
``repro/graphs/``, so the bug class cannot silently come back.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.degree_growth import _MinDegreeWatcher
from repro.core.metrics import MetricsRecorder
from repro.graphs import generators as gen
from repro.graphs.array_adjacency import as_backend
from repro.network import NetworkSimulator
from repro.simulation.engine import make_process
from repro.simulation.trace import TraceRecorder
from repro.social.evolution import EvolutionTracker, simulate_social_evolution
from repro.social.group_discovery import discover_group

BACKENDS = ["list", "array"]


def run_with_callback(backend, callback, n=16, rounds=12, seed=3):
    proc = make_process("push", gen.cycle_graph(n), rng=seed, backend=backend)
    proc.run(rounds, callbacks=[callback])
    return proc


class TestRecordersOnBothBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_evolution_tracker_records_snapshots(self, backend):
        """Fails before the fix: the array backend recorded zero snapshots."""
        tracker = EvolutionTracker(every=4, probe_nodes=6, rng=1)
        run_with_callback(backend, tracker)
        assert len(tracker.snapshots) > 0
        assert all(s.num_edges > 0 for s in tracker.snapshots)

    def test_evolution_tracker_backend_equivalence(self):
        """Same seed, same snapshots on either backend."""
        rows = {}
        for backend in BACKENDS:
            tracker = EvolutionTracker(every=4, probe_nodes=6, rng=1)
            run_with_callback(backend, tracker)
            rows[backend] = tracker.as_rows()
        assert rows["list"] == rows["array"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_metrics_recorder_records(self, backend):
        recorder = MetricsRecorder()
        run_with_callback(backend, recorder)
        assert len(recorder.history) > 0
        assert recorder.edges_series().max() > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trace_recorder_records(self, backend):
        recorder = TraceRecorder()
        run_with_callback(backend, recorder)
        assert len(recorder.trace) > 0
        assert max(recorder.trace.min_degree) >= 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_degree_growth_watcher_records(self, backend):
        watcher = _MinDegreeWatcher([3, 4])
        run_with_callback(backend, watcher, rounds=60)
        assert watcher.hit_round  # at least one threshold reached

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_simulate_social_evolution_backends(self, backend):
        snaps = simulate_social_evolution(
            gen.cycle_graph(14), rounds=12, every=4, seed=2, backend=backend
        )
        assert len(snaps) >= 2  # baseline + at least one recorded round


class TestNetworkSimulatorBackends:
    def test_accepts_array_graph_topology(self):
        """Fails before the fix: TypeError for ArrayGraph."""
        topo = as_backend(gen.cycle_graph(10), "array")
        sim = NetworkSimulator(topo, protocol="push", rng=3)
        stats = sim.run_to_convergence(max_rounds=20_000)
        assert sim.is_converged()
        assert stats.discoveries > 0

    def test_same_seed_same_rounds_across_backends(self):
        list_sim = NetworkSimulator(gen.cycle_graph(10), protocol="push", rng=7)
        array_sim = NetworkSimulator(
            as_backend(gen.cycle_graph(10), "array"), protocol="push", rng=7
        )
        a = list_sim.run_to_convergence(max_rounds=20_000)
        b = array_sim.run_to_convergence(max_rounds=20_000)
        assert (a.rounds, a.messages_sent, a.discoveries) == (
            b.rounds,
            b.messages_sent,
            b.discoveries,
        )

    def test_still_rejects_directed_graphs(self):
        from repro.graphs.adjacency import DynamicDiGraph

        with pytest.raises(TypeError):
            NetworkSimulator(DynamicDiGraph(3, [(0, 1)]))


class TestGroupDiscoveryBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_discover_group_runs_on_backend(self, backend):
        host = gen.barabasi_albert_graph(48, 3, np.random.default_rng(0))
        result = discover_group(host, k=10, process="push", seed=5, backend=backend)
        assert result.converged
        assert result.group_size == 10

    def test_discover_group_list_array_equivalence(self):
        """The E9 scenario is trace-identical across backends for a fixed seed."""
        host = gen.barabasi_albert_graph(48, 3, np.random.default_rng(0))
        results = {
            backend: discover_group(host, k=10, process="push", seed=5, backend=backend)
            for backend in BACKENDS
        }
        assert results["list"].members == results["array"].members
        assert results["list"].rounds == results["array"].rounds

