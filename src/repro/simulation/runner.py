"""Trial runner: execute experiment specs, aggregate results into tables.

The runner executes each trial with an independent RNG stream spawned
from the experiment's root seed, so every result table can be
regenerated bit-for-bit from one integer.  An unseeded run draws that
integer once, up front, so its trials replay too and a failure reports
the seed that reproduces it.  A ``processes=`` argument
enables multiprocessing fan-out across trials for the larger sweeps;
benchmarks use the default serial path for determinism.

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

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.simulation.engine import measure_convergence_rounds
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
    return TrialResult(
        spec=spec,
        trial_index=trial_index,
        rounds=result.rounds,
        converged=result.converged,
        edges_added=result.total_edges_added,
        messages=result.total_messages,
        bits=result.total_bits,
    )


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
        Number of worker processes (1 = run serially in this process).
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
