"""The array kernels against the test oracle: identical seeded traces.

The vectorized round kernels are only trustworthy if they are
*bit-identical* to the obvious per-node loop: same RNG stream
consumption, same neighbour choices, same per-round added edges in the
same order, same totals.  These tests run push, pull, the directed
two-hop walk and the three baselines to convergence on seeded graph
families and compare everything the trace exposes with
:func:`oracle.run_oracle`, which keeps per-node Python lists, samples
stage by stage and inserts edge by edge.  Walks that hit dead ends
(sinks, an isolated node) are compared too, so the ``-1`` sentinel chain
of the array kernels meets the oracle's.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracle import run_oracle
from repro.baselines.flooding import NeighborhoodFlooding
from repro.baselines.name_dropper import NameDropper
from repro.baselines.pointer_jump import RandomPointerJump
from repro.core.base import UpdateSemantics
from repro.core.directed import DirectedTwoHopWalk
from repro.core.pull import PullDiscovery
from repro.core.push import PushDiscovery
from repro.core.variants import FaultyPullDiscovery, FaultyPushDiscovery
from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen
from repro.graphs.array_adjacency import ArrayGraph
from repro.simulation.engine import make_process

#: the oracle's registry name for each process class
ORACLE_NAME = {
    PushDiscovery: "push",
    PullDiscovery: "pull",
    DirectedTwoHopWalk: "directed_pull",
    FaultyPushDiscovery: "faulty_push",
    FaultyPullDiscovery: "faulty_pull",
    NameDropper: "name_dropper",
    RandomPointerJump: "pointer_jump",
    NeighborhoodFlooding: "flooding",
}

SEEDS = [0, 7, 20120614]

UNDIRECTED_FAMILIES = {
    "path": lambda: gen.path_graph(28),
    "star": lambda: gen.star_graph(28),
    # the registered experiment family (connectivity-repaired Erdős–Rényi)
    "erdos_renyi": lambda: gen.make_family("erdos_renyi", 28, np.random.default_rng(99)),
}

DIRECTED_FAMILIES = {
    "bidirected_path": lambda: dgen.bidirected_path(16),
    "bidirected_star": lambda: dgen.bidirected_star(16),
    "random_strong": lambda: dgen.random_strongly_connected_digraph(
        16, rng=np.random.default_rng(99)
    ),
    # dead ends: the registered E6 family's sinks have out-degree 0
    "thm14_weak": lambda: dgen.make_directed_family("thm14_weak", 16),
    "directed_path": lambda: dgen.directed_path(16),
}


def path_plus_isolated(n):
    """The isolated node 0 plus a path on nodes ``1 .. n-1`` (never complete).

    The isolated node comes first so that a ``-1`` sentinel read as a node
    index would wrap to the path's end, which has a neighbour, not to the
    isolated node itself.
    """
    return ArrayGraph(n, [(u, u + 1) for u in range(1, n - 1)])


def _trace(history, graph_edges, normalize):
    """Every trace-visible quantity of a run, from per-round ``(added, messages, bits)``.

    Each round's added edges are kept in order: that order fixes the
    neighbour rows and with them every later draw.  Under ``normalize``
    only the per-round sets are kept.
    """

    def canon(u, v):
        u, v = int(u), int(v)
        return (u, v) if not normalize or u < v else (v, u)

    added = [[canon(u, v) for u, v in round_added] for round_added, _, _ in history]
    return {
        "rounds": len(history),
        "added": [frozenset(edges) for edges in added] if normalize else added,
        "messages": sum(messages for _, messages, _ in history),
        "bits": sum(bits for _, _, bits in history),
        "edges": sorted((int(u), int(v)) for u, v in graph_edges),
    }


def run_pair(process_cls, base_graph, seed, normalize=False, max_rounds=None, **kwargs):
    """Run the process and its oracle from ``base_graph``; return both traces.

    Both run to convergence, or for exactly ``max_rounds`` rounds when
    given.  ``normalize=True`` canonicalises undirected edge orientation and
    compares each round's added edges as a set — needed for flooding, whose
    packed round reports new edges as ``u < v`` in canonical order while the
    oracle records them in delivery orientation and order (same edge sets).
    """
    process = process_cls(base_graph.copy(), rng=seed, **kwargs)
    cap = max_rounds if max_rounds is not None else process.default_round_cap()
    result = process.run(cap, record_history=True)
    fast = _trace(
        [(r.added_edges, r.messages_sent, r.bits_sent) for r in result.history],
        process.graph.edge_list(),
        normalize,
    )
    fast["converged"] = result.converged
    fast["rng_state"] = process.rng.bit_generator.state
    semantics = kwargs.pop("semantics", UpdateSemantics.SYNCHRONOUS)
    history, graph, rng = run_oracle(
        ORACLE_NAME[process_cls],
        base_graph,
        seed,
        cap,
        sequential=semantics is UpdateSemantics.SEQUENTIAL,
        **kwargs,
    )
    ref = _trace([(r.added, r.messages, r.bits) for r in history], graph.edge_list(), normalize)
    ref["converged"] = fast["converged"] if max_rounds is not None else len(history) < cap
    ref["rng_state"] = rng.bit_generator.state
    return ref, fast


class TestUndirectedEquivalence:
    @pytest.mark.parametrize("family", sorted(UNDIRECTED_FAMILIES))
    @pytest.mark.parametrize("process_cls", [PushDiscovery, PullDiscovery])
    def test_push_pull_trace_identical(self, process_cls, family):
        base = UNDIRECTED_FAMILIES[family]()
        for seed in SEEDS:
            ref, fast = run_pair(process_cls, base, seed)
            assert ref["converged"] and fast["converged"]
            assert ref == fast

    @pytest.mark.parametrize("process_cls", [PushDiscovery, PullDiscovery])
    def test_isolated_node_fixed_rounds_identical(self, process_cls):
        """The isolated node samples -1 every round, so the run never
        converges; compare 40 fixed rounds instead."""
        base = path_plus_isolated(20)
        for seed in SEEDS:
            ref, fast = run_pair(process_cls, base, seed, max_rounds=40)
            assert ref["rounds"] == 40
            assert ref == fast

    def test_push_without_replacement_trace_identical(self):
        ref, fast = run_pair(PushDiscovery, gen.path_graph(20), 5, without_replacement=True)
        assert ref == fast

    @pytest.mark.parametrize("process_cls", [FaultyPushDiscovery, FaultyPullDiscovery])
    def test_faulty_variants_trace_identical(self, process_cls):
        kwargs = {"failure_prob": 0.25, "participation_prob": 0.75}
        ref, fast = run_pair(process_cls, gen.path_graph(20), 11, **kwargs)
        assert ref == fast


class TestBaselineEquivalence:
    """The three baselines' packed rounds equal their per-node payload loops."""

    @pytest.mark.parametrize("family", sorted(UNDIRECTED_FAMILIES))
    @pytest.mark.parametrize(
        "process_cls", [NameDropper, RandomPointerJump, NeighborhoodFlooding]
    )
    def test_baseline_trace_identical(self, process_cls, family):
        base = UNDIRECTED_FAMILIES[family]()
        for seed in SEEDS:
            ref, fast = run_pair(process_cls, base, seed, normalize=True)
            assert ref == fast

    @pytest.mark.parametrize("family", sorted(DIRECTED_FAMILIES))
    def test_directed_pointer_jump_trace_identical(self, family):
        base = DIRECTED_FAMILIES[family]()
        for seed in SEEDS:
            ref, fast = run_pair(RandomPointerJump, base, seed)
            assert ref == fast

    @pytest.mark.parametrize("process_cls", [NameDropper, RandomPointerJump])
    @pytest.mark.parametrize(
        "base", [gen.path_graph(18), gen.cycle_graph(64)], ids=["path18", "cycle64"]
    )
    def test_sequential_baseline_trace_identical(self, process_cls, base):
        """Sequential rounds use scalar draws and insert payload IDs read
        from the rows one by one; at n = 64 some of them sit in bit 63 of
        a membership word."""
        ref, fast = run_pair(process_cls, base, 13, semantics=UpdateSemantics.SEQUENTIAL)
        assert ref["converged"]
        assert ref == fast

    @pytest.mark.parametrize(
        "process_cls, graph_factory",
        [
            pytest.param(NameDropper, lambda: gen.cycle_graph(24), id="NameDropper"),
            pytest.param(RandomPointerJump, lambda: gen.cycle_graph(24), id="RandomPointerJump"),
            pytest.param(NameDropper, lambda: gen.cycle_graph(128), id="NameDropper-n128"),
            pytest.param(
                RandomPointerJump, lambda: gen.cycle_graph(128), id="RandomPointerJump-n128"
            ),
            pytest.param(
                RandomPointerJump,
                lambda: dgen.random_strongly_connected_digraph(96, rng=np.random.default_rng(4)),
                id="RandomPointerJump-directed-n96",
            ),
        ],
    )
    def test_exact_added_order_parity(self, process_cls, graph_factory):
        """Name Dropper / pointer jump packed rounds reproduce the exact edge
        application order of the payload loop (not just the sets) — the
        invariant that keeps neighbour rows, and hence future draws, aligned.

        Each round's proposal list must match too.  It is read only after
        the run, when the packed round rebuilds it from rows that have
        grown since.  At n=128 a round carries tens of thousands of payload
        IDs, most of them already known, so the teach-row filter has real
        work."""
        base = graph_factory()
        process = process_cls(base.copy(), rng=9)
        result = process.run_to_convergence(record_history=True)
        fast = [
            (
                [(int(u), int(v)) for u, v in r.added_edges],
                [(int(u), int(v)) for u, v in r.proposed_edges],
            )
            for r in result.history
        ]
        history, _, _ = run_oracle(ORACLE_NAME[process_cls], base, 9, process.default_round_cap())
        assert fast == [(r.added, r.proposed) for r in history]

    def test_large_flooding_round_parity(self):
        """Flooding at n=128: late rounds deliver more than 4096 rows, so the
        sorted row union crosses chunk boundaries mid-run."""
        ref, fast = run_pair(NeighborhoodFlooding, gen.cycle_graph(128), 0, normalize=True)
        assert ref == fast


class TestDirectedEquivalence:
    @pytest.mark.parametrize("family", sorted(DIRECTED_FAMILIES))
    def test_directed_trace_identical(self, family):
        base = DIRECTED_FAMILIES[family]()
        for seed in SEEDS:
            ref, fast = run_pair(DirectedTwoHopWalk, base, seed)
            assert ref["converged"] and fast["converged"]
            assert ref == fast


class TestSequentialEquivalence:
    """Sequential rounds take scalar draws per node and apply each edge at
    once; the processes and the oracle consume the same stream."""

    @pytest.mark.parametrize(
        "process_cls, graph_factory, kwargs",
        [
            pytest.param(PushDiscovery, lambda: gen.path_graph(18), {}, id="push"),
            pytest.param(PullDiscovery, lambda: gen.path_graph(18), {}, id="pull"),
            pytest.param(
                PushDiscovery,
                lambda: gen.path_graph(18),
                {"without_replacement": True},
                id="push-without-replacement",
            ),
            pytest.param(
                FaultyPushDiscovery,
                lambda: gen.path_graph(18),
                {"failure_prob": 0.25, "participation_prob": 0.75},
                id="faulty_push",
            ),
            pytest.param(
                FaultyPullDiscovery,
                lambda: gen.path_graph(18),
                {"failure_prob": 0.25, "participation_prob": 0.75},
                id="faulty_pull",
            ),
            pytest.param(
                DirectedTwoHopWalk,
                lambda: dgen.make_directed_family("thm14_weak", 16),
                {},
                id="directed_walk",
            ),
        ],
    )
    def test_sequential_trace_identical(self, process_cls, graph_factory, kwargs):
        base = graph_factory()
        for seed in SEEDS:
            ref, fast = run_pair(
                process_cls, base, seed, semantics=UpdateSemantics.SEQUENTIAL, **kwargs
            )
            assert ref["converged"]
            assert ref == fast


class TestEngineBackendOption:
    @pytest.mark.parametrize("name", ["push", "name_dropper", "pointer_jump", "flooding"])
    def test_make_process_matches_oracle(self, name):
        """``make_process`` builds the same run with or without ``backend="array"``."""
        base = gen.cycle_graph(16)
        results = set()
        for backend in (None, "array"):
            proc = make_process(name, base.copy(), rng=3, backend=backend)
            run = proc.run_to_convergence()
            assert run.converged
            results.add((run.rounds, run.total_messages, run.total_bits))
        history, _, _ = run_oracle(name, base, 3, proc.default_round_cap())
        oracle = (len(history), sum(r.messages for r in history), sum(r.bits for r in history))
        assert results == {oracle}

    def test_pointer_jump_classifies_array_graphs(self):
        """Handed either graph kind, pointer jump picks the right mode."""
        directed = make_process("pointer_jump_directed", dgen.directed_cycle(8), rng=0)
        assert directed._directed
        assert directed.run_to_convergence().converged
        undirected = make_process("pointer_jump", gen.cycle_graph(8), rng=0)
        assert not undirected._directed
        assert undirected.run_to_convergence().converged

    def test_list_backend_is_refused(self):
        from repro.simulation.experiment import ExperimentSpec

        with pytest.raises(ValueError, match="list backend was removed"):
            make_process("push", gen.cycle_graph(12), rng=0, backend="list")
        with pytest.raises(ValueError, match="list backend was removed"):
            ExperimentSpec(process="push", family="cycle", n=8, backend="list")

    def test_neighbor_rows_stay_aligned_after_convergence(self):
        """The strong invariant behind trace equality: identical row order."""
        base = gen.path_graph(18)
        fast = PushDiscovery(base.copy(), rng=9)
        fast.run_to_convergence()
        _, ref, _ = run_oracle("push", base, 9, fast.default_round_cap())
        for u in range(base.n):
            assert ref.rows[u] == fast.graph.neighbors(u).tolist()


@pytest.mark.slow
class TestLargeEquivalenceSweep:
    """Full-size sweep (n close to the benchmark scale); run with -m slow."""

    def test_push_large_cycle_trace_identical(self):
        ref, fast = run_pair(PushDiscovery, gen.cycle_graph(96), 20120614)
        assert ref == fast

    def test_pull_large_er_trace_identical(self):
        base = gen.erdos_renyi_graph(96, 0.08, rng=np.random.default_rng(1))
        ref, fast = run_pair(PullDiscovery, base, 20120614)
        assert ref == fast
