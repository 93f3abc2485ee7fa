"""Unit tests for the simulation substrate: rng, trace, engine registry, experiments, runner."""

import numpy as np
import pytest

from repro.core.push import PushDiscovery
from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen
from repro.graphs.closure import transitive_closure_edges
from repro.graphs.adjacency import DynamicDiGraph, DynamicGraph
from repro.simulation import bounds, experiment
from repro.simulation.engine import (
    PROCESS_REGISTRY,
    make_process,
    measure_convergence_rounds,
    process_names,
    run_process,
)
from repro.simulation.experiment import ExperimentSpec, SweepSpec
from repro.simulation.rng import SeedSequenceFactory, rng_from_seed, spawn_rngs
from repro.simulation.runner import run_sweep, run_trials, summarize_trials, sweep_table
from repro.simulation.trace import TraceRecorder


class TestRng:
    def test_rng_from_seed_deterministic(self):
        a = rng_from_seed(5).integers(1000, size=10)
        b = rng_from_seed(5).integers(1000, size=10)
        assert (a == b).all()

    def test_spawn_rngs_independent_and_deterministic(self):
        first = [r.integers(1000) for r in spawn_rngs(7, 3)]
        second = [r.integers(1000) for r in spawn_rngs(7, 3)]
        assert first == second
        assert len(set(first)) > 1
        with pytest.raises(ValueError):
            spawn_rngs(7, -1)

    def test_seed_factory_index_stability(self):
        factory = SeedSequenceFactory(11)
        value_direct = factory.rng_for_index(3).integers(10_000)
        # Drawing other indices first must not change stream 3.
        factory2 = SeedSequenceFactory(11)
        for index in (0, 1, 7, 2):
            factory2.rng_for_index(index).integers(10_000)
        assert factory2.rng_for_index(3).integers(10_000) == value_direct
        with pytest.raises(ValueError):
            factory.rng_for_index(-1)


class TestTrace:
    def test_trace_records_series(self):
        g = gen.cycle_graph(10)
        proc = PushDiscovery(g, rng=0)
        recorder = TraceRecorder()
        proc.run(12, callbacks=[recorder])
        trace = recorder.trace
        assert len(trace) == 12
        assert trace.num_edges[-1] == g.number_of_edges()
        arrays = trace.as_arrays()
        assert arrays["min_degree"].shape == (12,)

    def test_trace_every_k(self):
        g = gen.cycle_graph(10)
        proc = PushDiscovery(g, rng=0)
        recorder = TraceRecorder(every=3)
        proc.run(10, callbacks=[recorder])
        assert recorder.trace.rounds == [0, 3, 6, 9]
        with pytest.raises(ValueError):
            TraceRecorder(every=0)

    def test_custom_probes(self):
        g = gen.cycle_graph(8)
        proc = PushDiscovery(g, rng=0)
        recorder = TraceRecorder(probes={"mean_degree": lambda p: p.graph.degrees().mean()})
        proc.run(5, callbacks=[recorder])
        assert len(recorder.trace.custom["mean_degree"]) == 5
        assert "mean_degree" in recorder.trace.as_dict()

    def test_rounds_to_first_complete(self):
        g = gen.cycle_graph(6)
        proc = PushDiscovery(g, rng=0)
        recorder = TraceRecorder()
        proc.run_to_convergence(callbacks=[recorder])
        total_pairs = 6 * 5 // 2
        hit = recorder.trace.rounds_to_first_complete(total_pairs)
        assert hit is not None
        assert recorder.trace.rounds_to_first_complete(10**6) is None


class TestEngineRegistry:
    def test_registry_contains_all_processes(self):
        assert {"push", "pull", "directed_pull", "name_dropper", "pointer_jump", "flooding"} <= set(
            process_names()
        )

    def test_checkpoint_reverse_lookup_is_unambiguous(self):
        """Checkpoints name a process by its (ctor, needs_directed) entry."""
        keys = list(PROCESS_REGISTRY.values())
        shared = {name for name, key in PROCESS_REGISTRY.items() if keys.count(key) > 1}
        assert not shared, f"registry entries share (ctor, needs_directed): {sorted(shared)}"

    def test_make_process_push(self):
        proc = make_process("push", gen.cycle_graph(6), rng=0)
        assert isinstance(proc, PushDiscovery)

    def test_make_process_unknown(self):
        with pytest.raises(KeyError):
            make_process("bogus", gen.cycle_graph(6))

    def test_make_process_graph_kind_mismatch(self):
        with pytest.raises(TypeError):
            make_process("directed_pull", gen.cycle_graph(6))
        with pytest.raises(TypeError):
            make_process("push", DynamicDiGraph(4, [(0, 1)]))

    def test_pointer_jump_accepts_both_kinds(self):
        make_process("pointer_jump", gen.cycle_graph(6), rng=0)
        make_process("pointer_jump_directed", DynamicDiGraph(4, [(0, 1), (1, 2)]), rng=0)

    def test_measure_convergence_rounds_copy_semantics(self):
        g = gen.cycle_graph(8)
        before = g.number_of_edges()
        result = measure_convergence_rounds("push", g, rng=0)
        assert result.converged
        assert g.number_of_edges() == before  # original untouched
        measure_convergence_rounds("push", g, rng=0, copy_graph=False)
        assert g.is_complete()

    def test_run_process_wrapper(self):
        proc = make_process("push", gen.cycle_graph(8), rng=0)
        assert run_process(proc).converged


FAULTY_KWARGS = {"failure_prob": 0.25, "participation_prob": 0.75}


class TestRegistryRunAccounting:
    """Every registered process, on both backends, accounts for its run round by round."""

    @pytest.mark.parametrize("backend", ["list", "array"])
    @pytest.mark.parametrize("name", sorted(PROCESS_REGISTRY))
    def test_history_sums_to_totals_and_reaches_the_target(self, name, backend):
        rng = np.random.default_rng(11)
        if PROCESS_REGISTRY[name][1]:
            start = dgen.make_directed_family("random_strong", 12, rng)
            target = transitive_closure_edges(start)
        else:
            start = gen.make_family("cycle", 12, rng)
            target = {(u, v) for u in range(12) for v in range(u + 1, 12)}
        kwargs = FAULTY_KWARGS if name.startswith("faulty_") else {}
        proc = make_process(name, start.copy(), rng=rng, backend=backend, **kwargs)
        result = proc.run_to_convergence(record_history=True)

        assert result.converged
        assert result.rounds == len(result.history) == proc.round_index
        assert [r.round_index for r in result.history] == list(range(result.rounds))
        assert sum(r.num_added for r in result.history) == result.total_edges_added
        assert sum(r.messages_sent for r in result.history) == result.total_messages
        assert sum(r.bits_sent for r in result.history) == result.total_bits
        # every reported edge is genuinely new, and together they close the graph
        def canon(u, v):
            u, v = int(u), int(v)
            return (u, v) if start.directed or u < v else (v, u)

        added = [canon(u, v) for r in result.history for u, v in r.added_edges]
        assert len(set(added)) == len(added) == result.total_edges_added
        assert not set(added) & set(start.edge_list())
        assert set(proc.graph.edge_list()) == target


class TestExperimentSpecs:
    def test_build_graph_from_family(self, rng):
        spec = ExperimentSpec(process="push", family="cycle", n=12)
        g = spec.build_graph(rng)
        assert isinstance(g, DynamicGraph)
        assert g.n == 12

    def test_build_graph_directed(self, rng):
        spec = ExperimentSpec(process="directed_pull", family="directed_cycle", n=8, directed=True)
        assert isinstance(spec.build_graph(rng), DynamicDiGraph)

    def test_custom_factory(self):
        spec = ExperimentSpec(
            process="push",
            family="custom",
            n=5,
            graph_factory=lambda n, rng: gen.star_graph(n),
        )
        g = spec.build_graph()
        assert g.degree(0) == 4

    def test_describe(self):
        spec = ExperimentSpec(process="push", family="cycle", n=10, label="demo")
        assert "push" in spec.describe() and "demo" in spec.describe()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("backend", "arary"),
            ("process", "pushh"),
            ("family", "cycel"),
            ("n", -5),
            ("trials", -1),
            ("checkpoint_every", -3),
            ("max_rounds", -1),
        ],
    )
    def test_bad_field_raises_before_any_graph_is_built(self, monkeypatch, field, value):
        built = []
        monkeypatch.setattr(experiment, "make_family", lambda *args: built.append(args))
        monkeypatch.setattr(experiment, "make_directed_family", lambda *args: built.append(args))
        good = dict(process="push", family="cycle", n=16, trials=2, backend="array")
        with pytest.raises(ValueError, match=f"{field}={value!r}"):
            run_trials(ExperimentSpec(**{**good, field: value}), root_seed=0)
        assert built == []

    def test_family_registry_follows_directed(self):
        with pytest.raises(ValueError, match="family='cycle' is not a registered directed"):
            ExperimentSpec(process="directed_pull", family="cycle", n=8, directed=True)

    def test_sweep_expansion(self):
        sweep = SweepSpec(processes=["push", "pull"], families=["cycle"], sizes=[8, 16], trials=2)
        specs = sweep.expand()
        assert len(specs) == len(sweep) == 4
        assert {s.process for s in specs} == {"push", "pull"}
        assert all(s.trials == 2 for s in specs)
        assert len(list(iter(sweep))) == 4


class TestRunner:
    def test_run_trials_count_and_determinism(self):
        spec = ExperimentSpec(process="push", family="cycle", n=10, trials=3)
        a = run_trials(spec, root_seed=1)
        b = run_trials(spec, root_seed=1)
        assert len(a) == 3
        assert [t.rounds for t in a] == [t.rounds for t in b]
        assert all(t.converged for t in a)

    def test_summarize_trials(self):
        spec = ExperimentSpec(process="push", family="cycle", n=10, trials=3)
        trials = run_trials(spec, root_seed=2)
        summary = summarize_trials(trials)
        assert summary["trials"] == 3
        assert summary["rounds_min"] <= summary["rounds_mean"] <= summary["rounds_max"]
        assert summary["converged_fraction"] == 1.0
        with pytest.raises(ValueError):
            summarize_trials([])

    def test_sweep_table_rows_sorted(self):
        sweep = SweepSpec(processes=["push"], families=["cycle"], sizes=[12, 8], trials=2)
        results = run_sweep(sweep.expand(), root_seed=3)
        rows = sweep_table(results)
        assert [r["n"] for r in rows] == [8.0, 12.0]
        assert all(r["process"] == "push" for r in rows)

    def test_max_rounds_limits_trials(self):
        spec = ExperimentSpec(process="push", family="cycle", n=20, trials=1, max_rounds=2)
        trials = run_trials(spec, root_seed=0)
        assert trials[0].rounds == 2
        assert not trials[0].converged


class TestBounds:
    def test_bound_curves_positive_and_ordered(self):
        for n in (4, 16, 64, 256):
            assert 0 < bounds.n_log_n(n) <= bounds.n_log2_n(n) * 2
            assert bounds.n_squared(n) <= bounds.n_squared_log_n(n)

    def test_n_log_k(self):
        assert bounds.n_log_k(10, 1) == pytest.approx(10 * np.log(2))
        assert bounds.n_log_k(10, 100) == pytest.approx(10 * np.log(100))

    def test_registry(self):
        assert set(bounds.BOUND_REGISTRY) >= {"n_log_n", "n_log2_n", "n_squared"}
        for fn in bounds.BOUND_REGISTRY.values():
            assert fn(32) > 0
