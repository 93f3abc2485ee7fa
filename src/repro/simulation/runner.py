"""Trial runner: execute experiment specs, aggregate results into tables.

The runner executes each trial with an independent RNG stream spawned
from the experiment's root seed, so every result table can be
regenerated bit-for-bit from one integer.  An unseeded run draws that
integer once, up front, so its trials replay too and a failure reports
the seed that reproduces it.  A ``processes=`` argument
enables multiprocessing fan-out across trials for the larger sweeps.

The serial path stacks trials.  A spec of ``push`` (either replacement
mode), ``pull`` or ``directed_pull`` that is synchronous and not
checkpointed runs up to K trials at once in one disjoint-union graph
(:meth:`~repro.graphs.array_adjacency.ArrayGraph.stacked`): block ``s``
holds the trial in slot ``s``, each trial draws its own ``(2, n)`` block
of a round's uniforms from its own generator, and one call of the
process's draw-free kernel and one batched insert serve them all.  Every
trial's :class:`TrialResult` equals the one :func:`_run_single_trial`
gives, which stays the reference and the pool's worker body.

* K is the largest stack whose rows, at the complete graph's width, and
  whose membership bits each fit in one
  :data:`~repro.graphs.array_adjacency.CHUNK` of row entries (1 MiB):
  4 at n = 256, 16 at n = 128, 1 from n = 258
  (:func:`~repro.graphs.array_adjacency.stack_width`).  A spec whose K,
  capped by its trial count, is below 2 runs trial by trial.
* Trials are admitted in trial order, and a slot whose trial converged or
  hit its round cap takes the next one.  The graph factory is called
  once per trial, in that order, and at most K trial graphs are alive at
  once.  A trial whose graph does not have the spec's ``n`` nodes (a
  family that rounds ``n``) runs by itself.
* A trial whose graph build or process construction raises is recorded
  as the same failed :class:`TrialResult` the per-trial path records; its
  siblings carry on.  If a stacked round raises, its in-flight trials
  replay from their own seeds through :func:`_run_single_trial`.
* Everything else runs trial by trial: the faulty variants, the
  baselines, sequential semantics, checkpointed specs and pooled runs.

The pooled path is crash-tolerant.  Worker death
(:class:`~concurrent.futures.process.BrokenProcessPool` — a crash, an OOM
kill, an injected fault) does not abort the sweep: the pool is rebuilt
and the unfinished trials are resubmitted with capped exponential
backoff; after ``retries`` consecutive pool failures the runner degrades
to in-process execution and finishes the remaining trials serially.
Because every trial draws from its own ``SeedSequence`` stream, a retried
trial reproduces the crashed attempt draw-for-draw — retrying never
changes results.  A trial that *raises* (deterministic error, not worker
death) is not retried; it is recorded as a failed :class:`TrialResult`
carrying a :class:`TrialExecutionError` tagged with the spec label, trial
index and derived seed, and its completed siblings are kept.
"""

from __future__ import annotations

import inspect
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.base import RunResult, UpdateSemantics, id_bits
from repro.core.directed import DirectedTwoHopWalk
from repro.core.pull import PullDiscovery
from repro.core.push import PushDiscovery
from repro.graphs.array_adjacency import (
    ArrayDiGraph,
    ArrayGraph,
    refuse_oversized_run,
    stack_width,
)
from repro.simulation.engine import PROCESS_REGISTRY, make_process, measure_convergence_rounds
from repro.simulation.experiment import ExperimentSpec
from repro.simulation.rng import SeedSequenceFactory, fresh_root_seed
from repro.simulation import stats

__all__ = [
    "TrialResult",
    "TrialExecutionError",
    "run_trials",
    "summarize_trials",
]

#: consecutive pool failures tolerated before degrading to in-process runs
DEFAULT_TRIAL_RETRIES = 3

#: backoff after the k-th pool failure is BACKOFF_BASE * 2**k, capped
BACKOFF_BASE_SECONDS = 0.05
BACKOFF_CAP_SECONDS = 2.0


class TrialExecutionError(RuntimeError):
    """A trial raised inside a worker; carries the coordinates to reproduce it.

    All constructor arguments live in ``args`` so the exception pickles
    across the process boundary intact.
    """

    def __init__(self, label: str, trial_index: int, root_seed: Optional[int], cause: str):
        super().__init__(label, trial_index, root_seed, cause)
        self.label = label
        self.trial_index = trial_index
        self.root_seed = root_seed
        self.cause = cause

    def __str__(self) -> str:
        return (
            f"trial {self.trial_index} of {self.label!r} "
            f"(root_seed={self.root_seed}) failed: {self.cause}"
        )


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial of one experiment spec.

    ``error`` is ``None`` for a successful trial; a failed trial records
    the :class:`TrialExecutionError` here (with zeroed metrics) instead of
    aborting the sweep and losing its siblings.
    """

    spec: ExperimentSpec
    trial_index: int
    rounds: int
    converged: bool
    edges_added: int
    messages: int
    bits: int
    error: Optional[TrialExecutionError] = field(default=None, compare=False)

    @property
    def failed(self) -> bool:
        return self.error is not None


def _failed_trial(spec: ExperimentSpec, trial_index: int, root_seed, exc: Exception) -> TrialResult:
    """The failed :class:`TrialResult` of a trial that raised ``exc``, metrics zeroed."""
    error = TrialExecutionError(
        label=spec.describe(),
        trial_index=trial_index,
        root_seed=root_seed,
        cause=f"{type(exc).__name__}: {exc}",
    )
    return TrialResult(
        spec=spec,
        trial_index=trial_index,
        rounds=0,
        converged=False,
        edges_added=0,
        messages=0,
        bits=0,
        error=error,
    )


def _run_single_trial(args) -> TrialResult:
    """Module-level worker so it can cross a multiprocessing boundary.

    Accepts ``(spec, trial_index, root_seed)`` plus an optional trailing
    fault *directive* (test-only, taken parent-side from a
    :class:`~repro.network.failures.FaultInjector` at submit): it executes
    *before* the trial body, so an injected death costs no partial work.
    """
    spec, trial_index, root_seed = args[:3]
    rng = SeedSequenceFactory(root_seed).rng_for_index(trial_index)
    try:
        if len(args) > 3 and args[3] is not None:
            # "exit" kills the worker outright; "raise" lands in the except
            # below and is recorded as a failed trial (never retried).
            from repro.network.failures import FaultInjector

            FaultInjector.execute(args[3], f"trial {trial_index}")
        graph = spec.build_graph(rng)
        checkpoint_dir = None
        if spec.checkpoint_every and spec.checkpoint_dir is not None:
            checkpoint_dir = f"{spec.checkpoint_dir}/trial_{trial_index:04d}"
        result = measure_convergence_rounds(
            spec.process,
            graph,
            rng=rng,
            max_rounds=spec.max_rounds,
            copy_graph=False,
            checkpoint_every=spec.checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            **spec.process_kwargs,
        )
    except Exception as exc:
        return _failed_trial(spec, trial_index, root_seed, exc)
    return _completed_trial(spec, trial_index, result)


def _completed_trial(spec: ExperimentSpec, trial_index: int, run: RunResult) -> TrialResult:
    """The :class:`TrialResult` of a trial whose run returned ``run``."""
    return TrialResult(
        spec=spec,
        trial_index=trial_index,
        rounds=run.rounds,
        converged=run.converged,
        edges_added=run.total_edges_added,
        messages=run.total_messages,
        bits=run.total_bits,
    )


#: processes whose synchronous round is one ``(2, n)`` draw fed to their
#: draw-free ``sample_batch``.  Exact classes: the faulty subclasses also
#: draw participation and failure masks, so they do not stack.
_STACKABLE = (PushDiscovery, PullDiscovery, DirectedTwoHopWalk)


#: the per-trial call's own arguments.  ``process_kwargs`` naming one make
#: that call raise (``got multiple values``), so such a spec runs per trial
#: and every trial fails with that error.
_RUN_ARGUMENTS = frozenset(
    name
    for name, parameter in inspect.signature(measure_convergence_rounds).parameters.items()
    if parameter.kind is not parameter.VAR_KEYWORD and name != "semantics"
)


def _stacks(spec: ExperimentSpec) -> bool:
    """Whether the serial path runs ``spec``'s trials in a :class:`_TrialStack`."""
    return (
        PROCESS_REGISTRY[spec.process][0] in _STACKABLE
        and spec.process_kwargs.get("semantics", UpdateSemantics.SYNCHRONOUS)
        == UpdateSemantics.SYNCHRONOUS
        and _RUN_ARGUMENTS.isdisjoint(spec.process_kwargs)
        and not spec.checkpoint_every
        and min(spec.trials, stack_width(spec.n)) >= 2
    )


class _TrialStack:
    """The trials of one spec advancing together, up to K at a time, in one union graph.

    Slot ``s`` runs its trial in block ``s`` of the union (nodes
    ``s·n .. (s+1)·n − 1``).  A round draws each busy slot's ``(2, n)``
    uniforms from its own generator, calls the kernel once over every
    busy block and inserts all proposals in one batch.  Blocks share no
    row, so each trial's rows, and with them all its later draws, evolve
    exactly as in its own run.

    Convergence needs no graph scan.  Each new push or pull edge closes
    one missing pair, and each new edge of the directed walk one pair of
    the start graph's closure (the walk adds nothing outside it), so one
    ``bincount`` of the new edges' blocks updates every slot's counter,
    and a slot is done when its counter reaches 0 or its rounds reach the
    trial's cap.
    """

    def __init__(self, spec: ExperimentSpec, root_seed: int) -> None:
        self.spec = spec
        self.root_seed = root_seed
        self.seeds = SeedSequenceFactory(root_seed)
        self.results: Dict[int, TrialResult] = {}
        self.next_trial = 0
        self.n = n = spec.n
        k = min(spec.trials, stack_width(n))
        self.graph = self._union(k)
        self.trial = np.full(k, -1, dtype=np.int64)
        self.missing = np.zeros(k, dtype=np.int64)
        self.rounds = np.zeros(k, dtype=np.int64)
        self.added = np.zeros(k, dtype=np.int64)
        self.cap = np.zeros(k, dtype=np.int64)
        self.rngs: List[Optional[np.random.Generator]] = [None] * k
        self.draws = np.empty((k, 2, n))
        self.kernel = None
        self.messages_per_round = 0
        self.bits_per_message = 0

    def _union(self, k: int):
        return (ArrayDiGraph if self.spec.directed else ArrayGraph).stacked(k, self.n)

    def run(self) -> List[TrialResult]:
        """Every trial's result, in trial order."""
        while True:
            try:
                self._fill()
                busy = np.flatnonzero(self.trial >= 0)
                if not busy.size:
                    break
                nodes = (busy[:, None] * self.n + np.arange(self.n)).reshape(-1)
                while not self._round(busy, nodes):
                    pass
            except Exception as exc:
                warnings.warn(
                    f"a stacked round of {self.spec.describe()} raised {exc!r}; "
                    "its trials replay one at a time",
                    RuntimeWarning,
                )
                self._replay_in_flight()
        return [self.results[i] for i in range(self.spec.trials)]

    def _fill(self) -> None:
        """Admit pending trials in trial order until every slot is busy or none is left."""
        free = np.flatnonzero(self.trial < 0).tolist()
        while free and self.next_trial < self.spec.trials:
            trial_index = self.next_trial
            self.next_trial += 1
            if self._admit(free[0], trial_index):
                free.pop(0)

    def _admit(self, s: int, trial_index: int) -> bool:
        """Start ``trial_index`` in slot ``s``; False when it finished without a stacked round.

        Builds the graph and the process as the per-trial path does, so a
        failure is recorded the same way.  A trial that is converged from
        the start or capped at 0 rounds, or whose graph is not of ``n``
        nodes, is finished here.
        """
        spec = self.spec
        rng = self.seeds.rng_for_index(trial_index)
        try:
            graph = spec.build_graph(rng)
            process = make_process(spec.process, graph, rng=rng, **spec.process_kwargs)
            refuse_oversized_run(graph)
        except Exception as exc:
            self.results[trial_index] = _failed_trial(spec, trial_index, self.root_seed, exc)
            return False
        if graph.n != self.n:
            self.results[trial_index] = self._run_alone(trial_index, process)
            return False
        missing = process.closure_deficit_count() if graph.directed else graph.missing_edges()
        cap = spec.max_rounds if spec.max_rounds is not None else process.default_round_cap()
        if missing == 0 or cap == 0:
            self.results[trial_index] = TrialResult(
                spec=spec,
                trial_index=trial_index,
                rounds=0,
                converged=missing == 0,
                edges_added=0,
                messages=0,
                bits=0,
            )
            return False
        self.kernel = process.sample_batch
        self.messages_per_round = process.MESSAGES_PER_NODE * graph.n
        self.bits_per_message = id_bits(graph.n)
        self.trial[s] = trial_index
        self.rngs[s] = rng
        self.missing[s] = missing
        self.cap[s] = cap
        self.rounds[s] = self.added[s] = 0
        self.graph.load_block(s, graph)
        return True

    def _run_alone(self, trial_index: int, process) -> TrialResult:
        """Run one trial by itself, as the per-trial path would from its built process."""
        try:
            result = process.run_to_convergence(max_rounds=self.spec.max_rounds)
        except Exception as exc:
            return _failed_trial(self.spec, trial_index, self.root_seed, exc)
        return _completed_trial(self.spec, trial_index, result)

    def _round(self, busy: np.ndarray, nodes: np.ndarray) -> bool:
        """One synchronous round of the ``busy`` slots, whose blocks hold ``nodes``.

        Finished slots record their results; True when there was one.
        """
        for s in busy.tolist():
            self.rngs[s].random(out=self.draws[s])
        draws = self.draws if busy.size == self.trial.size else self.draws[busy]
        batch = self.kernel(self.graph, nodes, draws.swapaxes(0, 1).reshape(2, -1))
        added = self.graph.add_edges_batch_arrays(batch.us, batch.vs)
        gained = np.bincount(added.us // self.n, minlength=self.trial.size)
        self.missing -= gained
        self.added += gained
        self.rounds[busy] += 1
        done = (self.missing[busy] == 0) | (self.rounds[busy] >= self.cap[busy])
        if not done.any():
            return False
        for s in busy[done].tolist():
            self._finish(s)
        return True

    def _finish(self, s: int) -> None:
        trial_index = int(self.trial[s])
        rounds = int(self.rounds[s])
        messages = rounds * self.messages_per_round
        self.results[trial_index] = TrialResult(
            spec=self.spec,
            trial_index=trial_index,
            rounds=rounds,
            converged=bool(self.missing[s] == 0),
            edges_added=int(self.added[s]),
            messages=messages,
            bits=messages * self.bits_per_message,
        )
        self.trial[s] = -1
        self.rngs[s] = None

    def _replay_in_flight(self) -> None:
        """Rerun every busy slot's trial alone from its own seed, then start a fresh union."""
        for trial_index in sorted(self.trial[self.trial >= 0].tolist()):
            self.results[trial_index] = _run_single_trial((self.spec, trial_index, self.root_seed))
        self.trial[:] = -1
        self.rngs = [None] * self.trial.size
        self.graph = self._union(self.trial.size)


def _backoff_sleep(failure_count: int) -> None:
    delay = min(BACKOFF_BASE_SECONDS * (2 ** (failure_count - 1)), BACKOFF_CAP_SECONDS)
    time.sleep(delay)


def _run_trials_pooled(
    jobs: List[tuple],
    processes: int,
    retries: int,
    fault_injector=None,
) -> Dict[int, TrialResult]:
    """Run ``jobs`` in a worker pool, surviving worker death.

    Returns results keyed by trial index.  Unfinished jobs after a
    ``BrokenProcessPool`` are resubmitted to a fresh pool (with backoff);
    after ``retries`` consecutive pool failures the remaining jobs are
    run in-process.  Deterministic in-trial errors come back as failed
    :class:`TrialResult` rows, never as retries.
    """
    done: Dict[int, TrialResult] = {}
    pending = list(jobs)
    pool_failures = 0
    while pending and pool_failures <= retries:
        pool = ProcessPoolExecutor(max_workers=min(processes, len(pending)))
        futures = {}
        broken = False
        try:
            # Submitting inside the try keeps the pool covered by the
            # finally: a raising fault-injector or submit() must not leak
            # worker processes.
            for job in pending:
                directive = (
                    fault_injector.take_trial(job[1]) if fault_injector is not None else None
                )
                payload = job if directive is None else (*job, directive)
                futures[job[1]] = pool.submit(_run_single_trial, payload)
            # Keep draining after a break: futures that completed before the
            # pool died still hold results, and siblings must not be lost.
            for trial_index, future in futures.items():
                try:
                    done[trial_index] = future.result()
                except BrokenProcessPool:
                    broken = True
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        pending = [job for job in pending if job[1] not in done]
        if not broken:
            break
        pool_failures += 1
        if pool_failures <= retries and pending:
            _backoff_sleep(pool_failures)
    # Degraded path: finish what the pool could not.  The serial fallback
    # never consults the fault injector (workers are what die, not us).
    for job in pending:
        done[job[1]] = _run_single_trial(job)
    return done


def run_trials(
    spec: ExperimentSpec,
    root_seed: Optional[int] = None,
    processes: int = 1,
    retries: int = DEFAULT_TRIAL_RETRIES,
    fault_injector=None,
) -> List[TrialResult]:
    """Run all trials of one experiment spec.

    Parameters
    ----------
    spec:
        The experiment configuration.
    root_seed:
        Root seed from which each trial's independent stream is derived.
        Trial ``i`` always gets stream ``i``, so adding trials never
        changes earlier ones.  ``None`` draws a root seed from OS entropy
        once per call; failed trials report it as their ``root_seed``.
    processes:
        Number of worker processes (1 = run serially in this process,
        stacking the trials of the specs that stack; see the module
        docstring).
    retries:
        Consecutive worker-pool failures tolerated before the remaining
        trials degrade to in-process execution.  Retried trials replay
        their own seed stream, so crash recovery never changes results.
    fault_injector:
        Test hook: a :class:`repro.network.failures.FaultInjector` whose
        scheduled trial faults fire inside pool workers.  Never consulted
        on the serial or degraded path.
    """
    if root_seed is None:
        root_seed = fresh_root_seed()
    jobs: List[tuple] = [(spec, i, root_seed) for i in range(spec.trials)]
    if processes <= 1 or spec.trials <= 1:
        if _stacks(spec):
            return _TrialStack(spec, root_seed).run()
        return [_run_single_trial(job) for job in jobs]
    done = _run_trials_pooled(
        jobs, processes=processes, retries=retries, fault_injector=fault_injector
    )
    return [done[i] for i in range(spec.trials)]


def summarize_trials(trials: Sequence[TrialResult]) -> Dict[str, float]:
    """Aggregate one spec's trials into summary statistics.

    Returns mean/median/std/min/max of rounds, the fraction converged, and
    mean message/bit totals.  Failed trials (``error`` set) are excluded
    from the statistics and counted in ``failed``; a batch with no
    successful trial raises ``ValueError``.
    """
    if not trials:
        raise ValueError("cannot summarize an empty trial list")
    failed = [t for t in trials if t.failed]
    ok = [t for t in trials if not t.failed]
    if not ok:
        causes = "; ".join(str(t.error) for t in failed[:3])
        raise ValueError(f"all {len(trials)} trials failed ({causes})")
    rounds = np.array([t.rounds for t in ok], dtype=float)
    return {
        "n": float(ok[0].spec.n),
        "trials": float(len(ok)),
        "failed": float(len(failed)),
        "rounds_mean": float(rounds.mean()),
        "rounds_median": float(np.median(rounds)),
        "rounds_std": float(rounds.std(ddof=1)) if len(rounds) > 1 else 0.0,
        "rounds_min": float(rounds.min()),
        "rounds_max": float(rounds.max()),
        "rounds_ci95": stats.ci95_halfwidth(rounds),
        "converged_fraction": float(np.mean([t.converged for t in ok])),
        "messages_mean": float(np.mean([t.messages for t in ok])),
        "bits_mean": float(np.mean([t.bits for t in ok])),
        "edges_added_mean": float(np.mean([t.edges_added for t in ok])),
    }
