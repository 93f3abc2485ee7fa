"""Experiment substrate: seeds, traces, runners, sweeps, statistics, and bounds."""

from repro.simulation.rng import SeedSequenceFactory, spawn_rngs
from repro.simulation.trace import RunTrace, TraceRecorder
from repro.simulation.engine import (
    make_process,
    run_process,
    measure_convergence_rounds,
    PROCESS_REGISTRY,
)
from repro.simulation.experiment import ExperimentSpec, SweepSpec
from repro.simulation.runner import (
    TrialExecutionError,
    TrialResult,
    run_trials,
    run_sweep,
    summarize_trials,
)
from repro.simulation.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    TrialCheckpoint,
    latest_checkpoint,
    load_checkpoint,
    restore_process,
    resume_from_checkpoint,
    save_checkpoint,
)
from repro.simulation import stats, bounds, io, plotting

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "TrialCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "restore_process",
    "resume_from_checkpoint",
    "latest_checkpoint",
    "TrialExecutionError",
    "io",
    "plotting",
    "SeedSequenceFactory",
    "spawn_rngs",
    "RunTrace",
    "TraceRecorder",
    "make_process",
    "run_process",
    "measure_convergence_rounds",
    "PROCESS_REGISTRY",
    "ExperimentSpec",
    "SweepSpec",
    "TrialResult",
    "run_trials",
    "run_sweep",
    "summarize_trials",
    "stats",
    "bounds",
]
