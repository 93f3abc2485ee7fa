"""Cross-backend equivalence: list and array backends produce identical seeded traces.

The vectorized array backend is only trustworthy if it is *bit-identical*
to the reference list backend: same RNG stream consumption, same neighbour
choices, same per-round added edges, same totals.  These tests run push,
pull, and the directed two-hop walk to convergence on seeded graph
families under both backends and compare everything the trace exposes.
Walks that hit dead ends (sinks, an isolated node) are compared too, so
the ``-1`` sentinel chain of the array kernels meets the list backend.
"""

from __future__ import annotations

import numpy as np
import pytest

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
from repro.graphs.adjacency import DynamicGraph
from repro.graphs.array_adjacency import as_backend
from repro.simulation.engine import make_process

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
    return DynamicGraph(n, [(u, u + 1) for u in range(1, n - 1)])


def run_trace(process_cls, base_graph, seed, backend, normalize=False, **kwargs):
    """Run to convergence and return every trace-visible quantity.

    ``normalize=True`` canonicalises undirected edge orientation — needed
    for flooding, whose packed round reports new edges as ``u < v`` while
    the list loop records them in delivery orientation (same edge sets).
    """
    graph = as_backend(base_graph.copy(), backend)
    process = process_cls(graph, rng=seed, **kwargs)
    result = process.run_to_convergence(record_history=True)

    def canon(u, v):
        u, v = int(u), int(v)
        return (u, v) if not normalize or u < v else (v, u)

    per_round_added = [
        frozenset(canon(u, v) for u, v in r.added_edges) for r in result.history
    ]
    return {
        "rounds": result.rounds,
        "converged": result.converged,
        "added": per_round_added,
        "messages": result.total_messages,
        "bits": result.total_bits,
        "edges": sorted((int(u), int(v)) for u, v in process.graph.edge_list()),
    }


def run_fixed(process_cls, base_graph, seed, backend, rounds):
    """Run exactly ``rounds`` rounds; return per-round added edges, totals and RNG state."""
    graph = as_backend(base_graph.copy(), backend)
    process = process_cls(graph, rng=seed)
    result = process.run(max_rounds=rounds, record_history=True)
    return {
        "rounds": result.rounds,
        "added": [[(int(u), int(v)) for u, v in r.added_edges] for r in result.history],
        "messages": result.total_messages,
        "bits": result.total_bits,
        "edges": sorted((int(u), int(v)) for u, v in process.graph.edge_list()),
        "rng_state": process.rng.bit_generator.state,
    }


class TestUndirectedEquivalence:
    @pytest.mark.parametrize("family", sorted(UNDIRECTED_FAMILIES))
    @pytest.mark.parametrize("process_cls", [PushDiscovery, PullDiscovery])
    def test_push_pull_trace_identical(self, process_cls, family):
        base = UNDIRECTED_FAMILIES[family]()
        for seed in SEEDS:
            ref = run_trace(process_cls, base, seed, "list")
            fast = run_trace(process_cls, base, seed, "array")
            assert ref["rounds"] == fast["rounds"]
            assert ref["converged"] and fast["converged"]
            assert ref["added"] == fast["added"]
            assert ref["messages"] == fast["messages"]
            assert ref["bits"] == fast["bits"]
            assert ref["edges"] == fast["edges"]

    @pytest.mark.parametrize("process_cls", [PushDiscovery, PullDiscovery])
    def test_isolated_node_fixed_rounds_identical(self, process_cls):
        """The isolated node samples -1 every round, so run_trace (which needs
        convergence) cannot compare it; compare 40 fixed rounds instead."""
        base = path_plus_isolated(20)
        for seed in SEEDS:
            ref = run_fixed(process_cls, base, seed, "list", rounds=40)
            fast = run_fixed(process_cls, base, seed, "array", rounds=40)
            assert ref["rounds"] == 40
            assert ref == fast

    def test_push_without_replacement_trace_identical(self):
        base = gen.path_graph(20)
        ref = run_trace(PushDiscovery, base, 5, "list", without_replacement=True)
        fast = run_trace(PushDiscovery, base, 5, "array", without_replacement=True)
        assert ref == fast

    @pytest.mark.parametrize("process_cls", [FaultyPushDiscovery, FaultyPullDiscovery])
    def test_faulty_variants_trace_identical(self, process_cls):
        base = gen.path_graph(20)
        kwargs = {"failure_prob": 0.25, "participation_prob": 0.75}
        ref = run_trace(process_cls, base, 11, "list", **kwargs)
        fast = run_trace(process_cls, base, 11, "array", **kwargs)
        assert ref == fast


class TestBaselineEquivalence:
    """The three baselines (PR 3) are trace-identical across backends too."""

    @pytest.mark.parametrize("family", sorted(UNDIRECTED_FAMILIES))
    @pytest.mark.parametrize(
        "process_cls", [NameDropper, RandomPointerJump, NeighborhoodFlooding]
    )
    def test_baseline_trace_identical(self, process_cls, family):
        base = UNDIRECTED_FAMILIES[family]()
        for seed in SEEDS:
            ref = run_trace(process_cls, base, seed, "list", normalize=True)
            fast = run_trace(process_cls, base, seed, "array", normalize=True)
            assert ref == fast

    @pytest.mark.parametrize("family", sorted(DIRECTED_FAMILIES))
    def test_directed_pointer_jump_trace_identical(self, family):
        base = DIRECTED_FAMILIES[family]()
        for seed in SEEDS:
            ref = run_trace(RandomPointerJump, base, seed, "list")
            fast = run_trace(RandomPointerJump, base, seed, "array")
            assert ref == fast

    @pytest.mark.parametrize("process_cls", [NameDropper, RandomPointerJump])
    def test_sequential_baseline_trace_identical(self, process_cls):
        """Sequential rounds use scalar draws; both backends consume the same stream."""
        base = gen.path_graph(18)
        ref = run_trace(
            process_cls, base, 13, "list", semantics=UpdateSemantics.SEQUENTIAL
        )
        fast = run_trace(
            process_cls, base, 13, "array", semantics=UpdateSemantics.SEQUENTIAL
        )
        assert ref == fast

    @pytest.mark.parametrize("process_cls", [NameDropper, RandomPointerJump])
    def test_exact_added_order_parity(self, process_cls):
        """Name Dropper / pointer jump packed rounds reproduce the exact edge
        application order of the reference loop (not just the sets) — the
        invariant that keeps neighbour rows, and hence future draws, aligned."""
        base = gen.cycle_graph(24)
        runs = {}
        for backend in ("list", "array"):
            graph = as_backend(base.copy(), backend)
            process = process_cls(graph, rng=9)
            result = process.run_to_convergence(record_history=True)
            runs[backend] = [
                [(int(u), int(v)) for u, v in r.added_edges] for r in result.history
            ]
        assert runs["list"] == runs["array"]


class TestDirectedEquivalence:
    @pytest.mark.parametrize("family", sorted(DIRECTED_FAMILIES))
    def test_directed_trace_identical(self, family):
        base = DIRECTED_FAMILIES[family]()
        for seed in SEEDS:
            ref = run_trace(DirectedTwoHopWalk, base, seed, "list")
            fast = run_trace(DirectedTwoHopWalk, base, seed, "array")
            assert ref["rounds"] == fast["rounds"]
            assert ref["converged"] and fast["converged"]
            assert ref["added"] == fast["added"]
            assert ref["messages"] == fast["messages"]
            assert ref["bits"] == fast["bits"]
            assert ref["edges"] == fast["edges"]


class TestEngineBackendOption:
    def test_make_process_backend_equivalence(self):
        base = gen.cycle_graph(24)
        results = {}
        for backend in ("list", "array"):
            proc = make_process("push", base.copy(), rng=17, backend=backend)
            run = proc.run_to_convergence()
            results[backend] = (run.rounds, run.total_messages, run.total_bits)
        assert results["list"] == results["array"]

    @pytest.mark.parametrize("name", ["name_dropper", "pointer_jump", "flooding"])
    def test_make_process_accepts_array_for_baselines(self, name):
        """Baselines run on both backends end-to-end with identical seeded totals."""
        base = gen.cycle_graph(16)
        results = {}
        for backend in ("list", "array"):
            proc = make_process(name, base.copy(), rng=3, backend=backend)
            assert proc.backend == backend
            run = proc.run_to_convergence()
            assert run.converged
            results[backend] = (run.rounds, run.total_messages, run.total_bits)
        assert results["list"] == results["array"]

    def test_pointer_jump_classifies_array_graphs(self):
        """Handed an array graph directly, pointer jump picks the right mode."""
        from repro.graphs import directed_generators as dgen

        directed = make_process(
            "pointer_jump_directed", as_backend(dgen.directed_cycle(8), "array"), rng=0
        )
        assert directed._directed
        assert directed.run_to_convergence().converged
        undirected = make_process("pointer_jump", as_backend(gen.cycle_graph(8), "array"), rng=0)
        assert not undirected._directed
        assert undirected.run_to_convergence().converged

    def test_process_backend_kwarg_converts_graph(self):
        proc = PushDiscovery(gen.cycle_graph(12), rng=0, backend="array")
        assert proc.backend == "array"
        assert type(proc.graph).__name__ == "ArrayGraph"

    def test_neighbor_rows_stay_aligned_after_convergence(self):
        """The strong invariant behind trace equality: identical row order."""
        base = gen.path_graph(18)
        ref = PushDiscovery(base.copy(), rng=9)
        ref.run_to_convergence()
        fast = PushDiscovery(base.copy(), rng=9, backend="array")
        fast.run_to_convergence()
        for u in range(base.n):
            assert list(ref.graph.neighbors(u)) == fast.graph.neighbors(u).tolist()


@pytest.mark.slow
class TestLargeEquivalenceSweep:
    """Full-size sweep (n close to the benchmark scale); run with -m slow."""

    def test_push_large_cycle_trace_identical(self):
        base = gen.cycle_graph(96)
        ref = run_trace(PushDiscovery, base, 20120614, "list")
        fast = run_trace(PushDiscovery, base, 20120614, "array")
        assert ref == fast

    def test_pull_large_er_trace_identical(self):
        base = gen.erdos_renyi_graph(96, 0.08, rng=np.random.default_rng(1))
        ref = run_trace(PullDiscovery, base, 20120614, "list")
        fast = run_trace(PullDiscovery, base, 20120614, "array")
        assert ref == fast
