"""Activation schedules: which nodes act in a round.

The paper's model activates *every* node in *every* round.  The conclusion
asks what happens when "only a subset of nodes participate in forming
connections"; this module provides pluggable activation schedules for that
study and for an asynchronous-style model where a random subset of expected
size one acts per tick (the classic way to compare synchronous round bounds
against asynchronous wall-clock bounds).

:func:`apply_schedule` installs a schedule on any
:class:`DiscoveryProcess` as its ``participating_nodes`` and returns that
same process, which the caller then drives directly: its own ``run``
(``record_history=True`` keeps the per-round results) and running totals
describe the scheduled run.  A process with an installed schedule cannot
be checkpointed (:func:`repro.simulation.checkpoint.capture_checkpoint`
refuses it).
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Sequence

import numpy as np

from repro.core.base import DiscoveryProcess

__all__ = [
    "ActivationSchedule",
    "FullActivation",
    "BernoulliActivation",
    "FixedSubsetActivation",
    "RoundRobinActivation",
    "PoissonLikeActivation",
    "apply_schedule",
]


class ActivationSchedule(abc.ABC):
    """Decides which nodes act in a given round."""

    @abc.abstractmethod
    def active_nodes(self, n: int, round_index: int, rng: np.random.Generator) -> Iterable[int]:
        """Return the node IDs that act in round ``round_index`` of an n-node process."""


class FullActivation(ActivationSchedule):
    """Every node acts every round — the paper's synchronous model."""

    def active_nodes(self, n: int, round_index: int, rng: np.random.Generator) -> Iterable[int]:
        return range(n)


class BernoulliActivation(ActivationSchedule):
    """Each node independently acts with probability ``p`` each round."""

    def __init__(self, p: float) -> None:
        if not (0.0 < p <= 1.0):
            raise ValueError(f"p must be in (0, 1], got {p}")
        self.p = p

    def active_nodes(self, n: int, round_index: int, rng: np.random.Generator) -> Iterable[int]:
        mask = rng.random(n) < self.p
        return np.flatnonzero(mask).tolist()


class FixedSubsetActivation(ActivationSchedule):
    """Only a fixed subset of nodes ever acts (the rest are passive listeners).

    Node IDs are validated eagerly: negatives are rejected at construction,
    and IDs beyond the process's node count are rejected at first use.  An
    out-of-range ID is a configuration error — silently shrinking the
    active set would make a subset experiment measure something other than
    what was asked for.
    """

    def __init__(self, subset: Sequence[int]) -> None:
        subset = list(subset)
        if not subset:
            raise ValueError("the active subset must be non-empty")
        self.subset: List[int] = sorted(set(int(u) for u in subset))
        if self.subset[0] < 0:
            raise ValueError(f"active node ids must be non-negative, got {self.subset[0]}")

    def active_nodes(self, n: int, round_index: int, rng: np.random.Generator) -> Iterable[int]:
        if self.subset[-1] >= n:
            raise ValueError(
                f"active subset contains node {self.subset[-1]}, but the process "
                f"has only {n} nodes (valid ids are 0..{n - 1})"
            )
        return list(self.subset)


class RoundRobinActivation(ActivationSchedule):
    """Exactly one node acts per tick, cycling through node IDs in order.

    ``n`` ticks of this schedule perform the same amount of work as one
    synchronous round, so convergence tick-counts divided by ``n`` are
    directly comparable with the paper's round bounds.
    """

    def active_nodes(self, n: int, round_index: int, rng: np.random.Generator) -> Iterable[int]:
        return [round_index % n]


class PoissonLikeActivation(ActivationSchedule):
    """One uniformly random node acts per tick (asynchronous-style activation)."""

    def active_nodes(self, n: int, round_index: int, rng: np.random.Generator) -> Iterable[int]:
        return [int(rng.integers(n))]


def apply_schedule(process: DiscoveryProcess, schedule: ActivationSchedule) -> DiscoveryProcess:
    """Install ``schedule`` as ``process``'s ``participating_nodes``; return ``process``.

    Each round asks the schedule for the active nodes of round
    ``process.round_index``, drawing from ``process.rng`` ahead of the
    round's own draws.  Every round path (the kernels, the baselines'
    packed rounds, the sequential ablation) consults that hook.
    """
    if not isinstance(process, DiscoveryProcess):
        # Only the base round machinery consults participating_nodes();
        # installing it on any other object would be a silent no-op.
        raise TypeError(
            f"apply_schedule installs on DiscoveryProcess instances, got {type(process).__name__}"
        )

    def participating_nodes() -> Iterable[int]:
        return schedule.active_nodes(process.graph.n, process.round_index, process.rng)

    process.participating_nodes = participating_nodes  # type: ignore[method-assign]
    return process
