"""Experiment substrate: seeds, the process registry, specs, the trial runner,
checkpoints, statistics and bounds."""

from repro.simulation.rng import SeedSequenceFactory, spawn_rngs
from repro.simulation.engine import (
    make_process,
    measure_convergence_rounds,
    PROCESS_REGISTRY,
)
from repro.simulation.experiment import ExperimentSpec
from repro.simulation.runner import (
    TrialExecutionError,
    TrialResult,
    run_trials,
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
from repro.simulation import stats, bounds, io

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
    "SeedSequenceFactory",
    "spawn_rngs",
    "make_process",
    "measure_convergence_rounds",
    "PROCESS_REGISTRY",
    "ExperimentSpec",
    "TrialResult",
    "run_trials",
    "summarize_trials",
    "stats",
    "bounds",
]
