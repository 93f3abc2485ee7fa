"""The perf benchmark's workloads, and the child entry point that runs one rep.

Every call into the program goes through the public entry points used
here: :func:`repro.graphs.generators.make_family`,
:func:`repro.graphs.directed_generators.make_directed_family`,
:func:`repro.simulation.engine.make_process` (the constructor
``measure_convergence_rounds`` uses, called here so that building a
process counts as set-up), :func:`repro.simulation.runner.run_trials`,
:mod:`repro.simulation.checkpoint` and :mod:`repro.network`.  They are
called through their modules (``engine.make_process``), so the tracer in
``spans.py`` can swap module attributes for its wrappers.

A workload has two phases.  ``setup`` turns a rep's seed into inputs:
graphs, processes, simulators.  The callable it returns is the measured
section; it runs every trial and returns one :class:`Outcome` per trial.
It calls ``pace()`` before each of its parts (a trial, a spec of the
sweep, a seed of the network engines); see :class:`Pacer`.  Run one rep
directly with::

    PYTHONPATH=src python benchmarks/perf/workloads.py --workload push_n1024 --seed 1 --rep 0

It prints one JSON line: timings, outcomes and, with ``--trace``, the
per-layer totals.
"""

from __future__ import annotations

import argparse
import heapq
import json
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from repro.graphs import directed_generators, generators
from repro.network import (
    AsyncNetworkSimulator,
    DropUniform,
    FixedLatency,
    NetworkSimulator,
    UniformLatency,
)
from repro.simulation import checkpoint, engine, runner
from repro.simulation.experiment import ExperimentSpec

import spans

#: where a rep writes checkpoints and spans; ignored by git.
OUT_DIR = Path(__file__).resolve().parent / "out"


class Outcome(NamedTuple):
    """One trial's result: what ``expected.json`` pins, and whether it passed."""

    label: str
    rounds: int
    edges: int
    ok: bool
    note: str = ""


Mark = Callable[[int], None]
Pace = Callable[[], None]


def _no_mark(trial: int) -> None:
    """Trial hook of the untraced child, which labels no spans."""


def _no_pace() -> None:
    """Part hook of the traced child, which times no reference."""


def _call(phase: str, fn: Callable, *args):
    """Untraced stand-in for :meth:`spans.Tracer.phase`."""
    return fn(*args)


# --------------------------------------------------------------------------- #
# host speed
# --------------------------------------------------------------------------- #
def reference_s() -> float:
    """Seconds one fixed piece of work takes on this host, now.

    The work mixes what the workloads do: numpy calls on small arrays
    (sampling and dedupe) and interpreter-bound heap and dict updates (the
    message engines).  It calls no program code, so no change to the
    program changes it, and its arrays stay small, so it raises no
    workload's peak memory.
    """
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for _ in range(150):
        a = rng.integers(0, 1 << 20, 2048)
        np.unique(a)
        np.argsort(a, kind="stable")
    heap: List[tuple] = []
    counts: Dict[int, int] = {}
    for j in range(20000):
        heapq.heappush(heap, ((j * 7919) % 1009, j))
        counts[j & 1023] = counts.get(j & 1023, 0) + 1
        if len(heap) > 256:
            heapq.heappop(heap)
    return time.perf_counter() - start


class Pacer:
    """Times the measured section part by part, with the reference kernel between parts.

    The host's speed drifts by tens of percent within seconds (its cores
    are shared), and time to solution drifts with it.  The reference
    kernel runs once before the first part, between parts and after the
    last; each part is recorded as ``[seconds, reference seconds]``, the
    second being the mean of the kernel's times on either side.  The
    kernel's own time is in no part.  ``run.py`` scales each part to a
    host of fixed speed.
    """

    def __init__(self) -> None:
        self.parts: List[List[float]] = []
        self.first_ref_s = 0.0
        self._ref = 0.0
        self._t = 0.0
        self._open = False

    def start(self) -> None:
        """Warm the kernel up, time it once, and start the first part."""
        reference_s()  # the first call pays for cold caches and lazy numpy set-up
        self.first_ref_s = self._ref = reference_s()
        self._t = time.perf_counter()

    def __call__(self) -> None:
        """A part begins: close the running one, unless this is the first."""
        if self._open:
            self.close()
        self._open = True

    def close(self) -> None:
        """End the running part and time the kernel after it."""
        elapsed = time.perf_counter() - self._t
        ref = reference_s()
        self.parts.append([elapsed, (self._ref + ref) / 2])
        self._ref = ref
        self._t = time.perf_counter()


# --------------------------------------------------------------------------- #
# checks
# --------------------------------------------------------------------------- #
def _check(label: str, rounds: int, edges: int, converged: bool, n: int, directed: bool = False) -> Outcome:
    """A trial passes when it converged to the complete graph (or full closure)."""
    full = n * (n - 1) if directed else n * (n - 1) // 2
    if not converged:
        return Outcome(label, rounds, edges, False, "did not converge")
    if edges != full:
        return Outcome(label, rounds, edges, False, f"final graph has {edges} edges, expected {full}")
    return Outcome(label, rounds, edges, True)


def _raised(label: str, exc: Exception) -> Outcome:
    return Outcome(label, 0, 0, False, f"raised {type(exc).__name__}: {exc}")


def _run_process(label: str, process, n: int, callbacks=()) -> Outcome:
    """Run a prebuilt process to convergence and check its final graph."""
    try:
        result = process.run_to_convergence(callbacks=callbacks)
    except Exception as exc:
        return _raised(label, exc)
    return _check(label, result.rounds, process.graph.number_of_edges(), result.converged, n)


# --------------------------------------------------------------------------- #
# push_n1024: the ROADMAP reference profile
# --------------------------------------------------------------------------- #
def push_setup(seed: np.random.SeedSequence, smoke: bool, mark: Mark, pace: Pace, scratch: Path):
    """Four ``push`` trials on a cycle, run one at a time, so nothing can batch them."""
    n, trials = (48, 2) if smoke else (1024, 4)
    processes = []
    for child in seed.spawn(trials):
        rng = np.random.default_rng(child)
        graph = generators.make_family("cycle", n, rng)
        processes.append(engine.make_process("push", graph, rng=rng, backend="array"))

    def run() -> List[Outcome]:
        outcomes = []
        for i in range(trials):
            pace()
            mark(i)
            # Popped, so a finished trial's complete graph is freed before the next.
            outcomes.append(_run_process("push", processes.pop(0), n))
        return outcomes

    return run


# --------------------------------------------------------------------------- #
# sweep_n256: the shape of the E1/E2/E5 sweeps
# --------------------------------------------------------------------------- #
class _PrebuiltGraphs:
    """Graph factory for :class:`ExperimentSpec` handing out graphs built in set-up.

    ``run_trials`` calls the factory once per trial, in trial order.  The
    graphs come from the rep's own seed, not from the trial stream, which
    feeds the process alone.
    """

    def __init__(self, graphs: list, mark: Mark, first_trial: int) -> None:
        self.graphs = graphs
        self.initial_edges = [g.number_of_edges() for g in graphs]
        self.mark = mark
        self.first_trial = first_trial
        self.served = 0

    def __call__(self, n: int, rng: Optional[np.random.Generator]):
        self.mark(self.first_trial + self.served)
        self.served += 1
        return self.graphs.pop(0)


def sweep_setup(seed: np.random.SeedSequence, smoke: bool, mark: Mark, pace: Pace, scratch: Path):
    """Serial ``run_trials`` over three specs: many short trials."""
    trials = 2 if smoke else 12
    plan = [
        ("push", "erdos_renyi", 24 if smoke else 256, False),
        ("pull", "erdos_renyi", 24 if smoke else 256, False),
        ("directed_pull", "random_strong", 16 if smoke else 128, True),
    ]
    graph_seed, trial_seed = seed.spawn(2)
    root_seed = int(trial_seed.generate_state(1)[0])
    specs = []
    for k, ((process, family, n, directed), child) in enumerate(zip(plan, graph_seed.spawn(len(plan)))):
        rng = np.random.default_rng(child)
        make = directed_generators.make_directed_family if directed else generators.make_family
        factory = _PrebuiltGraphs([make(family, n, rng) for _ in range(trials)], mark, k * trials)
        spec = ExperimentSpec(
            process=process,
            family=family,
            n=n,
            trials=trials,
            directed=directed,
            graph_factory=factory,
            backend="array",
        )
        specs.append((spec, factory))

    def run() -> List[Outcome]:
        outcomes = []
        for spec, factory in specs:
            pace()
            results = runner.run_trials(spec, root_seed=root_seed)
            for result in results:
                label = f"{spec.process}#{result.trial_index}"
                if result.failed:
                    outcomes.append(Outcome(label, 0, 0, False, str(result.error)))
                    continue
                edges = factory.initial_edges[result.trial_index] + result.edges_added
                outcomes.append(
                    _check(label, result.rounds, edges, result.converged, spec.n, spec.directed)
                )
        return outcomes

    return run


# --------------------------------------------------------------------------- #
# payload_n2048: few rounds, millions of candidate edges each, checkpoint I/O
# --------------------------------------------------------------------------- #
def payload_setup(seed: np.random.SeedSequence, smoke: bool, mark: Mark, pace: Pace, scratch: Path):
    """The three payload baselines once each; ``name_dropper`` also checkpoints and resumes."""
    n, every = (48, 2) if smoke else (2048, 10)
    names = ("name_dropper", "pointer_jump", "flooding")
    processes = []
    for name, child in zip(names, seed.spawn(len(names))):
        rng = np.random.default_rng(child)
        graph = generators.make_family("cycle", n, rng)
        processes.append(engine.make_process(name, graph, rng=rng, backend="array"))
    saver = checkpoint.periodic_checkpointer(scratch, every)
    snapshot = scratch / f"round_{every:08d}"

    def run() -> List[Outcome]:
        outcomes = []
        for i, name in enumerate(names):
            pace()
            mark(i)
            callbacks = (saver,) if i == 0 else ()
            outcomes.append(_run_process(name, processes.pop(0), n, callbacks))
        pace()
        mark(len(names))
        label = "name_dropper.resumed"
        try:
            process = checkpoint.restore_process(checkpoint.load_checkpoint(snapshot))
            resumed = process.run_to_convergence()
        except Exception as exc:
            outcomes.append(_raised(label, exc))
            return outcomes
        # rounds: those run after the resume (so us_per_round counts rounds executed).
        outcome = _check(label, resumed.rounds, process.graph.number_of_edges(), resumed.converged, n)
        first = outcomes[0]
        if outcome.ok and (process.round_index, outcome.edges) != (first.rounds, first.edges):
            outcome = outcome._replace(
                ok=False,
                note=f"resumed run ended at round {process.round_index} with {outcome.edges} edges, "
                f"uninterrupted run at {first.rounds} with {first.edges}",
            )
        outcomes.append(outcome)
        return outcomes

    return run


# --------------------------------------------------------------------------- #
# network_n64: message-level engines (Python objects and the event heap)
# --------------------------------------------------------------------------- #
def network_setup(seed: np.random.SeedSequence, smoke: bool, mark: Mark, pace: Pace, scratch: Path):
    """Push protocol on the sync engine and on two async configurations, for six seeds."""
    n, seeds = (12, 2) if smoke else (64, 6)
    max_ticks = 100 * n * n
    runs = []
    for child in seed.spawn(seeds):
        # default_rng(child) gives the same stream on every call, so the sync
        # and parity engines see identical draws.
        graph = generators.make_family("cycle", n, np.random.default_rng(child))
        runs.append(
            [
                ("sync", NetworkSimulator(graph, "push", rng=np.random.default_rng(child))),
                (
                    "parity",
                    AsyncNetworkSimulator(
                        graph, "push", rng=np.random.default_rng(child), latency=FixedLatency(0.45)
                    ),
                ),
                (
                    "lossy",
                    AsyncNetworkSimulator(
                        graph,
                        "push",
                        rng=np.random.default_rng(child),
                        latency=UniformLatency(0.05, 1.5),
                        failures=DropUniform(0.1),
                    ),
                ),
            ]
        )

    def run() -> List[Outcome]:
        outcomes: List[Outcome] = []
        for sims in runs:
            pace()
            found = []
            for label, sim in sims:
                mark(len(outcomes) + len(found))
                try:
                    stats = sim.run_to_convergence(max_ticks)
                except Exception as exc:
                    found.append(_raised(label, exc))
                    continue
                rounds = stats.rounds if label == "sync" else stats.ticks
                found.append(
                    _check(label, rounds, sim.knowledge_graph.number_of_edges(), sim.is_converged(), n)
                )
            sync, parity = found[0], found[1]
            if parity.ok and parity.rounds != sync.rounds:
                found[1] = parity._replace(
                    ok=False, note=f"async parity took {parity.rounds} ticks, sync {sync.rounds} rounds"
                )
            outcomes += found
        return outcomes

    return run


#: workload name -> setup function.
WORKLOADS: Dict[str, Callable[..., Callable[[], List[Outcome]]]] = {
    "push_n1024": push_setup,
    "sweep_n256": sweep_setup,
    "payload_n2048": payload_setup,
    "network_n64": network_setup,
}


def rep_seed(seed: int, rep: int) -> np.random.SeedSequence:
    """Rep ``rep``'s inputs: a fixed child of ``seed``, so a run's inputs are a seeded sequence."""
    return np.random.SeedSequence(seed, spawn_key=(rep,))


def execute(
    name: str,
    seed: int,
    rep: int,
    smoke: bool,
    tracer=None,
    started: Optional[float] = None,
    setup_only: bool = False,
) -> dict:
    """Set up and run one rep of workload ``name``; returns the child's result record.

    ``started`` is the ``time.monotonic()`` reading taken when the child
    process was launched, so ``setup_s`` covers interpreter start, imports
    and input construction.  ``setup_only`` stops after set-up and one
    reference timing.  With a ``tracer`` installed, setup and the measured
    section each run under a phase span, and no reference kernel runs.
    """
    setup = WORKLOADS[name]
    mark = tracer.set_trial if tracer is not None else _no_mark
    call = tracer.phase if tracer is not None else _call
    pacer = Pacer() if tracer is None else None
    record: Dict[str, object] = {"workload": name, "rep": rep, "traced": tracer is not None}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT_DIR) as scratch:
        pace = pacer if pacer is not None else _no_pace
        run = call("bench.setup", setup, rep_seed(seed, rep), smoke, mark, pace, Path(scratch))
        record["setup_s"] = time.monotonic() - started if started is not None else None
        outcomes: List[Outcome] = []
        if pacer is not None:
            pacer.start()
            record["setup_ref_s"] = pacer.first_ref_s
            if not setup_only:
                outcomes = run()
                pacer.close()
                record["parts"] = pacer.parts
                record["wall_s"] = sum(seconds for seconds, _ in pacer.parts)
        elif not setup_only:
            t0 = time.perf_counter()
            outcomes = call("bench.measure", run)
            record["wall_s"] = time.perf_counter() - t0
    record.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        outcomes=[o._asdict() for o in outcomes],
        numpy=np.__version__,
        python=platform.python_version(),
    )
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (smoke test)")
    parser.add_argument("--trace", action="store_true", help="record layer spans")
    parser.add_argument("--spans", type=Path, help="write the traced spans here as JSONL")
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up (a setup_s sample)")
    parser.add_argument(
        "--started", type=float, help="time.monotonic() when the parent launched this process"
    )
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    try:
        record = execute(
            args.workload, args.seed, args.rep, args.smoke, tracer, args.started, args.setup_only
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        record["layers"] = tracer.layers()
        if args.spans is not None:
            tracer.write_jsonl(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
