"""Unit tests for the social-evolution and group-discovery layers."""

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.simulation.engine import make_process
from repro.simulation.rng import spawn_rngs
from repro.social.evolution import EvolutionTracker, simulate_social_evolution
from repro.social.group_discovery import discover_group, sample_connected_group
from repro.graphs import properties as props


class TestEvolutionTracker:
    def test_snapshot_fields(self):
        g = gen.barabasi_albert_graph(30, 2, np.random.default_rng(0))
        tracker = EvolutionTracker(every=5, probe_nodes=8, rng=1)
        snap = tracker.snapshot(g, 0)
        assert snap.num_edges == g.number_of_edges()
        assert snap.mean_degree == pytest.approx(props.average_degree(g))
        assert snap.diameter is not None and snap.diameter >= 1
        assert snap.mean_second_degree >= 0

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            EvolutionTracker(every=0)

    def test_simulate_social_evolution_series(self):
        g = gen.watts_strogatz_graph(24, 4, 0.1, np.random.default_rng(2))
        snaps = simulate_social_evolution(g, process="push", rounds=30, every=10, seed=3)
        # baseline + one snapshot per recorded round
        assert len(snaps) >= 3
        assert snaps[0].round_index == 0
        # the original graph is untouched
        assert g.number_of_edges() == gen.watts_strogatz_graph(
            24, 4, 0.1, np.random.default_rng(2)
        ).number_of_edges()

    def test_evolution_trends(self):
        """Triangulation should raise clustering and shrink the diameter over time."""
        g = gen.cycle_graph(20)
        snaps = simulate_social_evolution(g, process="push", rounds=120, every=30, seed=4)
        first, last = snaps[0], snaps[-1]
        assert last.num_edges > first.num_edges
        assert last.mean_degree > first.mean_degree
        assert last.diameter is not None and first.diameter is not None
        assert last.diameter <= first.diameter
        assert last.average_clustering >= first.average_clustering

    def test_tracker_and_process_draw_from_separate_streams(self, monkeypatch):
        """The probe sample does not reuse the bits of the process's first round."""
        probes = []
        snapshot = EvolutionTracker.snapshot

        def spy(self, graph, round_index):
            result = snapshot(self, graph, round_index)
            probes.append(list(self._probes))
            return result

        monkeypatch.setattr(EvolutionTracker, "snapshot", spy)
        n, k, seed = 40, 8, 7
        g = gen.cycle_graph(n)
        snaps = simulate_social_evolution(g, rounds=4, every=3, seed=seed, probe_nodes=k)
        assert probes[0] != np.random.default_rng(seed).choice(n, size=k, replace=False).tolist()
        assert probes[0] == spawn_rngs(seed, 1)[0].choice(n, size=k, replace=False).tolist()
        # the process itself still runs on ``seed``
        process = make_process("push", g.copy(), rng=seed)
        process.run(4)
        assert snaps[-1].round_index == 4
        assert snaps[-1].num_edges == process.graph.number_of_edges()

    def test_as_rows(self):
        g = gen.cycle_graph(12)
        snaps = simulate_social_evolution(g, rounds=10, every=5, seed=0)
        tracker = EvolutionTracker(every=5)
        tracker.snapshots = snaps
        rows = tracker.as_rows()
        assert len(rows) == len(snaps)
        assert set(rows[0]) >= {"round", "edges", "clustering", "second_degree"}


class TestGroupDiscovery:
    def test_sample_connected_group(self):
        g = gen.grid_graph(5, 5)
        group = sample_connected_group(g, 8, rng=1)
        assert len(group) == 8
        sub, _ = g.subgraph(group)
        assert props.is_connected(sub)

    def test_sample_group_size_validation(self):
        g = gen.cycle_graph(10)
        with pytest.raises(ValueError):
            sample_connected_group(g, 0)
        with pytest.raises(ValueError):
            sample_connected_group(g, 11)

    def test_discover_group_with_explicit_members(self):
        host = gen.cycle_graph(30)
        result = discover_group(host, members=[0, 1, 2, 3, 4], seed=2)
        assert result.converged
        assert result.group_size == 5
        assert result.host_size == 30
        assert result.rounds > 0
        assert result.rounds_over_k_log2_k > 0

    def test_discover_group_sampled(self):
        host = gen.barabasi_albert_graph(60, 2, np.random.default_rng(3))
        result = discover_group(host, k=8, process="pull", seed=4)
        assert result.converged
        assert result.group_size == 8

    def test_exactly_one_of_members_or_k(self):
        host = gen.cycle_graph(10)
        with pytest.raises(ValueError, match="exactly one"):
            discover_group(host, seed=0)
        with pytest.raises(ValueError, match="exactly one"):
            discover_group(host, members=[0, 1], k=3, seed=0)

    def test_group_rounds_independent_of_host_size(self):
        """The O(k log^2 k) guarantee: same group size, very different hosts."""
        small_host = gen.cycle_graph(20)
        large_host = gen.cycle_graph(200)
        r_small = discover_group(small_host, members=list(range(8)), seed=5).rounds
        r_large = discover_group(large_host, members=list(range(8)), seed=5).rounds
        # identical induced subgraph (a path of 8) and identical seed -> identical rounds
        assert r_small == r_large
