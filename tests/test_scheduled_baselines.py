"""Activation schedules restrict *every* registered process.

Regression suite for the scheduled-baseline bug: the baselines override
``step()`` wholesale, and before this fix they never consulted
``participating_nodes()``, so a ``ScheduledProcess`` subset run produced
byte-identical edge sets to full activation.  The headline test here fails
on the pre-fix code: a strict subset of active nodes must add strictly
fewer edges than full activation for every registered process.

The second half pins the packed rounds to the test oracle *under*
schedules: a seeded subset schedule produces the oracle's per-round edge
sets (the subset bulk draw consumes one uniform per participating node).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scheduler import (
    BernoulliActivation,
    FixedSubsetActivation,
    RoundRobinActivation,
    ScheduledProcess,
)
from oracle import run_oracle
from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen
from repro.simulation.engine import PROCESS_REGISTRY, make_process

N = 16
ROUNDS = 4
SUBSET = [0, 1, 2]


def _base_graph(name: str):
    """A connected starting graph of the kind the process requires."""
    _, needs_directed = PROCESS_REGISTRY[name]
    if needs_directed or name == "pointer_jump_directed":
        return dgen.random_strongly_connected_digraph(N, rng=np.random.default_rng(42))
    return gen.cycle_graph(N)


def _edges_after(name: str, schedule) -> int:
    process = make_process(name, _base_graph(name).copy(), rng=11)
    if schedule is not None:
        process = ScheduledProcess(process, schedule)
    for _ in range(ROUNDS):
        process.step()
    return process.total_edges_added


class TestSubsetRestrictsEveryProcess:
    """The headline regression: subset runs add strictly fewer edges."""

    @pytest.mark.parametrize("name", sorted(PROCESS_REGISTRY))
    def test_subset_adds_strictly_fewer_edges(self, name):
        full = _edges_after(name, None)
        subset = _edges_after(name, FixedSubsetActivation(SUBSET))
        assert full > 0, f"{name} added nothing under full activation"
        assert subset < full, (
            f"{name}: subset activation added {subset} edges "
            f"vs {full} under full activation — the schedule was ignored"
        )

    @pytest.mark.parametrize("name", ["flooding", "name_dropper", "pointer_jump"])
    def test_subset_edge_sets_match_oracle(self, name):
        """The packed round and the oracle agree on *which* edges a subset run creates."""
        process = make_process(name, gen.cycle_graph(N), rng=5)
        wrapped = ScheduledProcess(process, FixedSubsetActivation(SUBSET))
        for _ in range(ROUNDS):
            wrapped.step()
        _, graph, _ = run_oracle(
            name, gen.cycle_graph(N), 5, ROUNDS, schedule=FixedSubsetActivation(SUBSET)
        )
        assert process.graph.edge_list() == graph.edge_list()


def _canon(edges):
    return frozenset((min(int(u), int(v)), max(int(u), int(v))) for u, v in edges)


class TestScheduledTraceEquivalence:
    """ScheduledProcess × {push, pull, baselines}: the oracle's rounds, round by round."""

    PROCESSES = ["push", "pull", "name_dropper", "pointer_jump", "flooding"]

    @staticmethod
    def _pair(name: str, make_schedule):
        process = make_process(name, gen.cycle_graph(20), rng=13)
        wrapped = ScheduledProcess(process, make_schedule())
        fast = [wrapped.step() for _ in range(5)]
        history, graph, _ = run_oracle(name, gen.cycle_graph(20), 13, 5, schedule=make_schedule())
        ref = {
            "per_round": [_canon(r.added) for r in history],
            "messages": sum(r.messages for r in history),
            "bits": sum(r.bits for r in history),
            "edges": graph.edge_list(),
        }
        return ref, {
            "per_round": [_canon(r.added_edges) for r in fast],
            "messages": process.total_messages,
            "bits": process.total_bits,
            "edges": process.graph.edge_list(),
        }

    @pytest.mark.parametrize("name", PROCESSES)
    def test_fixed_subset_schedule_trace_equivalent(self, name):
        ref, fast = self._pair(name, lambda: FixedSubsetActivation([1, 4, 7, 10]))
        assert ref == fast

    @pytest.mark.parametrize("name", PROCESSES)
    def test_bernoulli_schedule_trace_equivalent(self, name):
        """The schedule draws from the process rng, ahead of the round's own draws."""
        ref, fast = self._pair(name, lambda: BernoulliActivation(0.5))
        assert ref == fast

    @pytest.mark.parametrize("name", ["name_dropper", "pointer_jump"])
    def test_round_robin_single_actor_rounds(self, name):
        """One node per tick: a baseline round does at most one node's work."""
        process = make_process(name, gen.cycle_graph(10), rng=2)
        wrapped = ScheduledProcess(process, RoundRobinActivation())
        result = wrapped.step()
        assert result.messages_sent <= 2  # one actor (pointer jump pays 2)


class TestScheduledProcessPassthrough:
    """The wrapper is a full stand-in: no reaching into ``.process`` needed."""

    def test_exposes_rng_round_index_metrics_history(self):
        process = make_process("push", gen.cycle_graph(12), rng=0)
        wrapped = ScheduledProcess(process, FixedSubsetActivation([0, 1, 2]))
        assert wrapped.rng is process.rng
        assert wrapped.round_index == 0
        assert wrapped.semantics is process.semantics
        first = wrapped.step()
        assert wrapped.round_index == 1
        assert wrapped.history == [first]
        result = wrapped.run(3)
        assert wrapped.round_index == 1 + result.rounds
        assert len(wrapped.history) == 1 + result.rounds
        metrics = wrapped.metrics
        assert metrics["rounds"] == wrapped.round_index
        assert metrics["edges_added"] == wrapped.total_edges_added == process.total_edges_added
        assert metrics["messages"] == wrapped.total_messages == process.total_messages
        assert metrics["bits"] == wrapped.total_bits == process.total_bits

    def test_degree_view_passthrough_matches_graph(self):
        process = make_process("pull", gen.cycle_graph(10), rng=3)
        wrapped = ScheduledProcess(process, FixedSubsetActivation([0, 5]))
        wrapped.run(4)
        assert np.array_equal(wrapped.degree_view(), process.graph.degrees())
        assert wrapped.cached_min_degree() == process.graph.min_degree()

    def test_out_of_range_subset_raises_at_first_step(self):
        process = make_process("push", gen.cycle_graph(6), rng=0)
        wrapped = ScheduledProcess(process, FixedSubsetActivation([2, 9]))
        with pytest.raises(ValueError, match="node 9"):
            wrapped.step()

    def test_run_accepts_positional_arguments(self):
        """The wrapper's run mirrors DiscoveryProcess.run's full signature."""
        process = make_process("pull", gen.cycle_graph(8), rng=0)
        wrapped = ScheduledProcess(process, FixedSubsetActivation([0, 1]))
        seen = []
        result = wrapped.run(3, None, True, [lambda proc, res: seen.append(res)])
        assert result.rounds == 3
        assert len(result.history) == 3
        assert seen == wrapped.history
