"""The per-round record's graph columns equal a recount of the graph after every round.

:class:`MetricsRecorder` reads degrees from the graph's own degree
vector, which every insert path keeps: the gossip kernels' batched
insert, the sequential ablation's per-edge insert, the payload
baselines' packed and sequential rounds, and edges added outside a
round.  Each case recounts the degrees from ``graph.edge_list()``.
"""

import numpy as np
import pytest

from repro.core.base import UpdateSemantics
from repro.core.directed import DirectedTwoHopWalk
from repro.core.metrics import MetricsRecorder
from repro.core.pull import PullDiscovery
from repro.core.push import PushDiscovery
from repro.core.scheduler import FixedSubsetActivation, apply_schedule
from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen
from repro.simulation.engine import make_process

SEQUENTIAL = UpdateSemantics.SEQUENTIAL

CASES = {
    "push": lambda: PushDiscovery(gen.cycle_graph(16), rng=7),
    "pull": lambda: PullDiscovery(gen.cycle_graph(16), rng=7),
    "sequential_push": lambda: PushDiscovery(gen.cycle_graph(10), rng=5, semantics=SEQUENTIAL),
    "directed_walk": lambda: DirectedTwoHopWalk(dgen.directed_cycle(12), rng=3),
    "name_dropper": lambda: make_process("name_dropper", gen.cycle_graph(24), rng=1),
    "sequential_name_dropper": lambda: make_process(
        "name_dropper", gen.cycle_graph(24), rng=1, semantics=SEQUENTIAL
    ),
    "pointer_jump": lambda: make_process("pointer_jump", gen.cycle_graph(24), rng=2),
    "sequential_pointer_jump": lambda: make_process(
        "pointer_jump", gen.cycle_graph(24), rng=2, semantics=SEQUENTIAL
    ),
    "pointer_jump_directed": lambda: make_process(
        "pointer_jump_directed", dgen.directed_cycle(20), rng=4
    ),
    "flooding": lambda: make_process("flooding", gen.cycle_graph(40), rng=0),
    "scheduled_pull": lambda: apply_schedule(
        PullDiscovery(gen.cycle_graph(16), rng=2), FixedSubsetActivation([0, 3, 5, 8])
    ),
}


def _recount(graph):
    """(Out-)degrees counted from the edge list, independently of the graph's vector."""
    counts = np.zeros(graph.n, dtype=np.int64)
    for u, v in graph.edge_list():
        counts[u] += 1
        if not graph.directed:
            counts[v] += 1
    return counts


def _run_checked(process, rounds, recorder):
    """Run ``rounds`` rounds, checking the recorder's newest row against a recount each round."""
    checked = []

    def check(proc, result):
        graph = proc.graph
        row = {name: column[-1] for name, column in recorder.as_arrays().items()}
        degrees = _recount(graph)
        m = len(graph.edge_list())
        pairs = graph.n * (graph.n - 1) // (1 if graph.directed else 2)
        assert row["round_index"] == result.round_index
        assert row["min_degree"] == degrees.min()
        assert row["max_degree"] == degrees.max()
        assert row["mean_degree"] == pytest.approx(degrees.mean())
        assert row["num_edges"] == m
        assert row["missing_edges"] == pairs - m
        checked.append(result.round_index)

    process.run(rounds, callbacks=[recorder, check])
    return checked


class TestDegreeColumnsMatchRecount:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_degree_columns_match_recount_every_round(self, case):
        process = CASES[case]()
        recorder = MetricsRecorder()
        checked = _run_checked(process, 40, recorder)
        assert len(recorder) > 0
        assert checked == list(range(len(recorder)))

    def test_edge_added_outside_a_round(self):
        """An edge inserted between rounds shows in the next round's row."""
        process = PushDiscovery(gen.cycle_graph(8), rng=0)
        recorder = MetricsRecorder()
        _run_checked(process, 2, recorder)
        graph = process.graph
        u, v = next((u, v) for u in range(8) for v in range(u + 1, 8) if not graph.has_edge(u, v))
        assert graph.add_edge(u, v)
        assert _run_checked(process, 3, recorder) == [2, 3, 4]
        assert len(recorder) == 5
