"""Unit tests for the simulation substrate: rng, engine registry, experiments, runner."""

import numpy as np
import pytest

from repro.core.push import PushDiscovery
from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen
from repro.graphs.closure import transitive_closure_edges
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph
from repro.simulation import bounds, experiment
from repro.simulation.engine import (
    PROCESS_REGISTRY,
    make_process,
    measure_convergence_rounds,
    process_names,
)
from repro.simulation.experiment import ExperimentSpec
from repro.simulation.rng import SeedSequenceFactory, rng_from_seed, spawn_rngs
from repro.simulation.runner import run_trials, summarize_trials


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
            make_process("push", ArrayDiGraph(4, [(0, 1)]))

    def test_pointer_jump_accepts_both_kinds(self):
        make_process("pointer_jump", gen.cycle_graph(6), rng=0)
        make_process("pointer_jump_directed", ArrayDiGraph(4, [(0, 1), (1, 2)]), rng=0)

    def test_measure_convergence_rounds_copy_semantics(self):
        g = gen.cycle_graph(8)
        before = g.number_of_edges()
        result = measure_convergence_rounds("push", g, rng=0)
        assert result.converged
        assert g.number_of_edges() == before  # original untouched
        measure_convergence_rounds("push", g, rng=0, copy_graph=False)
        assert g.is_complete()


FAULTY_KWARGS = {"failure_prob": 0.25, "participation_prob": 0.75}


class TestRegistryRunAccounting:
    """Every registered process accounts for its run round by round."""

    @pytest.mark.parametrize("name", sorted(PROCESS_REGISTRY))
    def test_history_sums_to_totals_and_reaches_the_target(self, name):
        rng = np.random.default_rng(11)
        if PROCESS_REGISTRY[name][1]:
            start = dgen.make_directed_family("random_strong", 12, rng)
            target = transitive_closure_edges(start)
        else:
            start = gen.make_family("cycle", 12, rng)
            target = {(u, v) for u in range(12) for v in range(u + 1, 12)}
        kwargs = FAULTY_KWARGS if name.startswith("faulty_") else {}
        proc = make_process(name, start.copy(), rng=rng, **kwargs)
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
        assert isinstance(g, ArrayGraph)
        assert g.n == 12

    def test_build_graph_directed(self, rng):
        spec = ExperimentSpec(process="directed_pull", family="directed_cycle", n=8, directed=True)
        assert isinstance(spec.build_graph(rng), ArrayDiGraph)

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

    @pytest.mark.parametrize(
        "process, directed, kind",
        [
            ("directed_pull", False, "a directed"),
            ("pointer_jump_directed", False, "a directed"),
            ("push", True, "an undirected"),
            ("faulty_pull", True, "an undirected"),
        ],
    )
    def test_process_of_the_other_graph_kind_fails_at_once(
        self, monkeypatch, process, directed, kind
    ):
        built = []
        monkeypatch.setattr(experiment, "make_family", lambda *args: built.append(args))
        monkeypatch.setattr(experiment, "make_directed_family", lambda *args: built.append(args))
        family = "random_strong" if directed else "cycle"
        with pytest.raises(ValueError, match=f"directed={directed!r}: .* requires {kind} graph"):
            ExperimentSpec(process=process, family=family, n=8, directed=directed)
        assert built == []

    @pytest.mark.parametrize("directed, family", [(False, "cycle"), (True, "random_strong")])
    def test_pointer_jump_takes_both_graph_kinds(self, directed, family):
        spec = ExperimentSpec(
            process="pointer_jump", family=family, n=8, trials=1, directed=directed
        )
        assert run_trials(spec, root_seed=0)[0].converged


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
