"""Unit tests for the push (triangulation) process."""

import numpy as np
import pytest

from oracle import check_graph_invariants
from repro.core.base import UpdateSemantics
from repro.core.push import PushDiscovery
from repro.graphs import generators as gen
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph


class TestPushBasics:
    def test_requires_undirected_graph(self):
        with pytest.raises(TypeError):
            PushDiscovery(ArrayDiGraph(3, [(0, 1)]))

    def test_propose_returns_edge_between_neighbors(self, small_star, rng):
        proc = PushDiscovery(small_star, rng=rng)
        for _ in range(50):
            edge = proc.propose(0)
            if edge is None:
                continue
            v, w = edge
            assert small_star.has_edge(0, v)
            assert small_star.has_edge(0, w)
            assert v != w

    def test_degree_one_node_never_proposes(self, small_path, rng):
        proc = PushDiscovery(small_path, rng=rng)
        # Node 0 has a single neighbour: with replacement both draws coincide.
        assert proc.propose(0) is None

    def test_isolated_node_proposes_none(self, rng):
        g = ArrayGraph(3, [(1, 2)])
        proc = PushDiscovery(g, rng=rng)
        assert proc.propose(0) is None

    def test_without_replacement_always_distinct(self, rng):
        g = gen.star_graph(6)
        proc = PushDiscovery(g, rng=rng, without_replacement=True)
        for _ in range(50):
            edge = proc.propose(0)
            assert edge is not None
            assert edge[0] != edge[1]

    def test_step_adds_only_valid_edges(self, small_cycle, rng):
        proc = PushDiscovery(small_cycle, rng=rng)
        before = small_cycle.number_of_edges()
        result = proc.step()
        assert small_cycle.number_of_edges() == before + result.num_added
        assert check_graph_invariants(small_cycle) == []
        for v, w in result.added_edges:
            assert small_cycle.has_edge(v, w)

    def test_converged_on_complete_graph(self, rng):
        g = gen.complete_graph(5)
        proc = PushDiscovery(g, rng=rng)
        assert proc.is_converged()
        result = proc.run_to_convergence()
        assert result.rounds == 0 and result.converged

    def test_message_accounting(self, small_cycle, rng):
        proc = PushDiscovery(small_cycle, rng=rng)
        result = proc.step()
        n = small_cycle.n
        id_bits = int(np.ceil(np.log2(n)))
        assert result.messages_sent == 2 * n
        assert result.bits_sent == 2 * n * id_bits


class TestPushConvergence:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: gen.cycle_graph(10),
            lambda: gen.path_graph(10),
            lambda: gen.star_graph(10),
            lambda: gen.binary_tree_graph(10),
            lambda: gen.grid_graph(3, 3),
        ],
    )
    def test_converges_to_complete_graph(self, graph_factory):
        graph = graph_factory()
        proc = PushDiscovery(graph, rng=7)
        result = proc.run_to_convergence()
        assert result.converged
        assert graph.is_complete()
        assert check_graph_invariants(graph) == []

    def test_determinism_same_seed_same_run(self):
        results = []
        for _ in range(2):
            g = gen.cycle_graph(12)
            proc = PushDiscovery(g, rng=42)
            results.append((proc.run_to_convergence().rounds, g.edge_list()))
        assert results[0] == results[1]

    def test_different_seeds_usually_differ(self):
        rounds = set()
        for seed in range(5):
            g = gen.cycle_graph(12)
            rounds.add(PushDiscovery(g, rng=seed).run_to_convergence().rounds)
        assert len(rounds) > 1

    def test_sequential_semantics_also_converges(self):
        g = gen.path_graph(10)
        proc = PushDiscovery(g, rng=3, semantics=UpdateSemantics.SEQUENTIAL)
        assert proc.run_to_convergence().converged

    def test_edge_count_monotone_nondecreasing(self):
        g = gen.cycle_graph(10)
        proc = PushDiscovery(g, rng=11)
        prev = g.number_of_edges()
        for _ in range(50):
            proc.step()
            assert g.number_of_edges() >= prev
            prev = g.number_of_edges()

    def test_min_degree_never_decreases(self):
        g = gen.path_graph(12)
        proc = PushDiscovery(g, rng=13)
        prev = g.min_degree()
        result = proc.run(200)
        assert g.min_degree() >= prev

    def test_run_respects_max_rounds(self):
        g = gen.cycle_graph(20)
        proc = PushDiscovery(g, rng=5)
        result = proc.run(max_rounds=3)
        assert result.rounds == 3
        assert not result.converged

    def test_run_negative_rounds_rejected(self, small_cycle):
        with pytest.raises(ValueError):
            PushDiscovery(small_cycle, rng=0).run(-1)
