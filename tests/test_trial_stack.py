"""Serial ``run_trials`` stacks trials; every result equals the per-trial reference.

``run_trials`` advances the trials of a synchronous, uncheckpointed
``push``, ``pull`` or ``directed_pull`` spec together in one disjoint-union
graph.  :func:`repro.simulation.runner._run_single_trial`, the pool's worker
body, stays the reference: every :class:`TrialResult` field, including a
failed trial's cause, must be the one it gives.  The cases cover both push
replacement modes, pull and the directed walk on several families; sizes
on and off a multiple of 64 and the smallest ones; fewer trials than the
stack holds, as many and more (so slots are refilled); round caps; start
graphs that are already complete or closed; and failures.
"""

from __future__ import annotations

import weakref

import pytest

from repro.graphs import array_adjacency
from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph, stack_width
from repro.simulation import runner
from repro.simulation.experiment import ExperimentSpec
from repro.simulation.runner import _run_single_trial, run_trials

SEED = 20120614

#: ``array_adjacency.CHUNK`` under which a 24-node spec stacks 3 trials.
CHUNK_FOR_3_AT_24 = 3 * 24 * 32


def fields(results):
    return [
        (
            t.trial_index,
            t.rounds,
            t.converged,
            t.edges_added,
            t.messages,
            t.bits,
            t.failed,
            t.error.cause if t.failed else None,
        )
        for t in results
    ]


def reference(spec, root_seed=SEED):
    return [_run_single_trial((spec, i, root_seed)) for i in range(spec.trials)]


def assert_stacked_equals_reference(spec, root_seed=SEED):
    stacked = run_trials(spec, root_seed=root_seed)
    assert fields(stacked) == fields(reference(spec, root_seed))
    return stacked


@pytest.fixture
def stacked_specs(monkeypatch):
    """The specs whose trials ran in a stack, recorded by a spy."""
    seen = []
    run = runner._TrialStack.run

    def spy(self):
        seen.append(self.spec)
        return run(self)

    monkeypatch.setattr(runner._TrialStack, "run", spy)
    return seen


class GraphsInOrder:
    """A graph factory that records each call's trial stream and can raise on one call.

    ``built`` watches each graph's membership array, which lives exactly as
    long as the graph (``ArrayGraph`` has no ``__weakref__`` slot).
    """

    def __init__(self, make, raise_on=None):
        self.make = make
        self.raise_on = raise_on
        self.calls = []
        self.built = []

    def __call__(self, n, rng):
        self.calls.append(rng.bit_generator.seed_seq.spawn_key)
        if len(self.calls) - 1 == self.raise_on:
            raise RuntimeError(f"no graph for call {self.raise_on}")
        graph = self.make(n, rng)
        self.built.append(weakref.ref(graph.adjacency_bits()))
        return graph


UNDIRECTED = [
    ("push", {}),
    ("push", {"without_replacement": True}),
    ("pull", {}),
]


# --------------------------------------------------------------------------- #
# equality with the per-trial path
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("process, kwargs", UNDIRECTED, ids=["push", "push_wor", "pull"])
@pytest.mark.parametrize(
    "family, n",
    [
        ("cycle", 2),
        ("path", 3),
        ("star", 3),
        ("erdos_renyi", 24),
        ("grid", 24),  # rounds to 25 nodes: each trial runs by itself
        ("lollipop", 40),
        ("barabasi_albert", 64),
        ("binary_tree", 70),
        ("watts_strogatz", 64),
    ],
)
def test_undirected_specs_match_the_reference(stacked_specs, process, kwargs, family, n):
    spec = ExperimentSpec(process=process, family=family, n=n, trials=5, process_kwargs=kwargs)
    assert_stacked_equals_reference(spec)
    assert stacked_specs == [spec]


@pytest.mark.parametrize(
    "family, n",
    [
        ("directed_cycle", 2),
        ("bidirected_path", 3),
        ("random_strong", 64),
        ("thm15_strong", 24),
        ("thm14_weak", 30),  # rounds to 28 nodes: each trial runs by itself
    ],
)
def test_directed_specs_match_the_reference(stacked_specs, family, n):
    spec = ExperimentSpec(process="directed_pull", family=family, n=n, trials=5, directed=True)
    assert_stacked_equals_reference(spec)
    assert stacked_specs == [spec]


@pytest.mark.parametrize("trials", [2, 3, 7])
@pytest.mark.parametrize(
    "process, kwargs, family, directed",
    [
        ("push", {}, "erdos_renyi", False),
        ("push", {"without_replacement": True}, "cycle", False),
        ("pull", {}, "star", False),
        ("directed_pull", {}, "random_strong", True),
    ],
)
def test_fewer_as_many_and_more_trials_than_slots(monkeypatch, process, kwargs, family, directed, trials):
    monkeypatch.setattr(array_adjacency, "CHUNK", CHUNK_FOR_3_AT_24)
    assert stack_width(24) == 3
    spec = ExperimentSpec(
        process=process, family=family, n=24, trials=trials, directed=directed, process_kwargs=kwargs
    )
    assert_stacked_equals_reference(spec)


@pytest.mark.parametrize("max_rounds", [0, 1, 15])
@pytest.mark.parametrize(
    "process, family, directed",
    [("push", "cycle", False), ("pull", "path", False), ("directed_pull", "random_strong", True)],
)
def test_round_caps_stop_trials_unconverged(process, family, directed, max_rounds):
    spec = ExperimentSpec(
        process=process, family=family, n=48, trials=6, directed=directed, max_rounds=max_rounds
    )
    results = assert_stacked_equals_reference(spec)
    assert all(t.rounds == max_rounds and not t.converged for t in results)


def test_start_graphs_already_complete_or_closed(monkeypatch):
    """Complete (or closed) starts finish at round 0, between trials that run."""
    monkeypatch.setattr(array_adjacency, "CHUNK", CHUNK_FOR_3_AT_24)

    def every_third(done, todo):
        def make(n, rng):
            trial = rng.bit_generator.seed_seq.spawn_key[0]
            return done(n) if trial % 3 == 0 else todo(n)

        return make

    undirected = ExperimentSpec(
        process="pull", family="custom", n=24, trials=7,
        graph_factory=every_third(gen.complete_graph, gen.cycle_graph),
    )
    directed = ExperimentSpec(
        process="directed_pull", family="custom", n=24, trials=7, directed=True,
        # Two layers with every edge between them: closed, but not complete.
        graph_factory=every_third(lambda n: dgen.layered_dag(2, n // 2), dgen.directed_cycle),
    )
    for spec in (undirected, directed):
        results = assert_stacked_equals_reference(spec)
        assert [t.rounds == 0 for t in results] == [i % 3 == 0 for i in range(7)]
        assert all(t.converged for t in results)


def test_a_factory_raising_on_one_trial_leaves_its_siblings_intact(monkeypatch):
    monkeypatch.setattr(array_adjacency, "CHUNK", CHUNK_FOR_3_AT_24)

    def spec():
        factory = GraphsInOrder(lambda n, rng: gen.make_family("erdos_renyi", n, rng), raise_on=2)
        return ExperimentSpec(process="push", family="custom", n=24, trials=6, graph_factory=factory)

    stacked = run_trials(spec(), root_seed=SEED)
    assert fields(stacked) == fields(reference(spec()))
    assert [t.failed for t in stacked] == [False, False, True, False, False, False]
    assert stacked[2].error.cause == "RuntimeError: no graph for call 2"
    assert stacked[2].error.root_seed == SEED


@pytest.mark.parametrize(
    "process, directed, make, kwargs",
    [
        ("push", False, lambda n, rng: gen.cycle_graph(n), {"bogus": 1}),
        ("directed_pull", True, lambda n, rng: gen.cycle_graph(n), {}),
    ],
    ids=["bad-kwargs", "bad-graph-kind"],
)
def test_a_process_that_cannot_be_built_fails_as_in_the_reference(process, directed, make, kwargs):
    spec = ExperimentSpec(
        process=process, family="custom", n=16, trials=3, directed=directed,
        graph_factory=make, process_kwargs=kwargs,
    )
    results = assert_stacked_equals_reference(spec)
    assert all(t.failed for t in results)


def test_a_raising_stacked_round_replays_its_trials_alone(monkeypatch):
    """In-flight trials replay from their own seeds; pending ones still stack."""
    monkeypatch.setattr(array_adjacency, "CHUNK", CHUNK_FOR_3_AT_24)
    spec = ExperimentSpec(process="push", family="cycle", n=24, trials=7)
    expected = fields(reference(spec))
    kernel = runner.PushDiscovery.sample_batch
    union_calls = []

    def flaky(self, graph, nodes, u):
        if graph.n > spec.n:
            union_calls.append(nodes.shape[0])
            if len(union_calls) == 5:
                raise FloatingPointError("injected")
        return kernel(self, graph, nodes, u)

    monkeypatch.setattr(runner.PushDiscovery, "sample_batch", flaky)
    with pytest.warns(RuntimeWarning, match="FloatingPointError"):
        stacked = run_trials(spec, root_seed=SEED)
    assert fields(stacked) == expected
    assert len(union_calls) > 5


# --------------------------------------------------------------------------- #
# contracts around the stack
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("trials", [3, 8])
def test_the_factory_is_called_once_per_trial_in_trial_order(monkeypatch, trials):
    monkeypatch.setattr(array_adjacency, "CHUNK", CHUNK_FOR_3_AT_24)
    alive = []

    def make(n, rng):
        alive.append(sum(ref() is not None for ref in factory.built))
        return gen.make_family("erdos_renyi", n, rng)

    factory = GraphsInOrder(make)
    spec = ExperimentSpec(process="pull", family="custom", n=24, trials=trials, graph_factory=factory)
    run_trials(spec, root_seed=SEED)
    assert factory.calls == [(i,) for i in range(trials)]
    assert max(alive) <= 3


def test_the_width_rule():
    """K fills 1 MiB of rows at the complete graph's width, and 1 MiB of membership."""
    assert stack_width(256) == 4
    assert min(12, stack_width(128)) == 12
    # 257 nodes still have 256-wide complete rows; from 258 they are 512 wide.
    assert stack_width(257) == 3
    assert stack_width(258) == stack_width(512) == 1
    budget = 4 * array_adjacency.CHUNK
    for n in (2, 5, 24, 64, 100, 128, 256, 257):
        for cls in (ArrayGraph, ArrayDiGraph):
            union = cls.stacked(stack_width(n), n)
            rows = union.neighbor_rows()[0] if cls is ArrayGraph else union.out_neighbor_rows()[0]
            assert rows.nbytes <= budget
            assert union.membership_nbytes() <= budget
            assert union.capacity >= n - 1


@pytest.mark.parametrize("n, trials", [(256, 12), (257, 12), (258, 12), (24, 1)])
def test_which_sizes_stack(n, trials):
    spec = ExperimentSpec(process="push", family="cycle", n=n, trials=trials)
    assert runner._stacks(spec) == (n <= 257 and trials > 1)


@pytest.mark.parametrize(
    "process, kwargs",
    [
        ("faulty_push", {"failure_prob": 0.2}),
        ("faulty_pull", {"participation_prob": 0.7}),
        ("faulty_push", {}),
        ("name_dropper", {}),
        ("pointer_jump", {}),
        ("flooding", {}),
        ("push", {"semantics": "sequential"}),
        ("pull", {"semantics": "sequential"}),
        # Arguments of the per-trial call itself: every trial fails there.
        ("push", {"max_rounds": 5}),
        ("pull", {"rng": 1}),
    ],
)
def test_other_specs_never_enter_the_stack(stacked_specs, process, kwargs):
    spec = ExperimentSpec(process=process, family="cycle", n=16, trials=4, process_kwargs=kwargs)
    assert fields(run_trials(spec, root_seed=SEED)) == fields(reference(spec))
    assert stacked_specs == []


def test_checkpointed_specs_never_enter_the_stack(stacked_specs, tmp_path):
    def spec(where):
        return ExperimentSpec(
            process="push", family="cycle", n=16, trials=3,
            checkpoint_every=5, checkpoint_dir=str(tmp_path / where),
        )

    assert fields(run_trials(spec("a"), root_seed=SEED)) == fields(reference(spec("b")))
    assert stacked_specs == []
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == [f"trial_000{i}" for i in range(3)]


# --------------------------------------------------------------------------- #
# the benchmark's shape at full size
# --------------------------------------------------------------------------- #
@pytest.mark.slow
@pytest.mark.parametrize(
    "process, family, n, directed",
    [
        ("push", "erdos_renyi", 256, False),
        ("pull", "erdos_renyi", 256, False),
        ("directed_pull", "random_strong", 128, True),
    ],
)
def test_sweep_shape_at_full_size(stacked_specs, process, family, n, directed):
    """``sweep_n256``'s three specs: 12 trials each, 4 slots refilled at n = 256."""
    spec = ExperimentSpec(process=process, family=family, n=n, trials=12, directed=directed)
    results = assert_stacked_equals_reference(spec, root_seed=5)
    assert stacked_specs == [spec]
    assert all(t.converged for t in results)
    assert min(spec.trials, stack_width(n)) == (4 if n == 256 else 12)
