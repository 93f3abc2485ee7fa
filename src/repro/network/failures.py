"""Message and worker failure models for robustness experiments.

The engine asks the failure model which messages of a batch survive.
:class:`NoFailures` is the paper's (reliable, synchronous) model;
:class:`DropUniform` drops each message independently with a fixed
probability, supporting the robustness experiments (E11) at the protocol
level; :class:`DropBurst` is its correlated counterpart — a two-state
Gilbert–Elliott channel whose bad state drops whole runs of consecutive
messages, modelling the bursty losses a flaky link actually produces.

:class:`FaultInjector` targets a different layer entirely: it kills the
*worker processes* of the trial pool in :mod:`repro.simulation.runner`
at deterministic, pre-registered trials so the crash-tolerance machinery
— pool rebuild, retry with backoff, degradation to in-process execution
— can be exercised reproducibly in tests.
"""

from __future__ import annotations

import abc
import os
from typing import Dict, Tuple

import numpy as np

from repro.network.events import FixedLatency, UniformLatency
from repro.network.message import Message, MessageBatch

__all__ = [
    "FailureModel",
    "NoFailures",
    "DropUniform",
    "DropBurst",
    "FaultInjector",
    "InjectedFault",
]

#: :meth:`DropUniform.survivors` walks batches of at least this many
#: messages as one block; below it the scalar loop is faster than the
#: walk's fixed cost (about 20 us a batch, against about 1 us a draw).
#: Runs with liveness pings send many batches of one or two messages.
WALK_FROM = 16


class FailureModel(abc.ABC):
    """Decides, per message, whether delivery succeeds."""

    @abc.abstractmethod
    def delivered(self, message: Message, rng: np.random.Generator) -> bool:
        """Return True when ``message`` reaches its receiver."""

    def survivors(
        self, batch: MessageBatch, rng: np.random.Generator, latency
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The rows of ``batch`` that survive, and a delivery delay for each.

        Draws message by message in row order, as sending the rows one at
        a time would: the loss decision, then a delay from ``latency``
        for a survivor only.  The built-in models override this with
        faster loops that consume the same stream.
        """
        rows, delays = [], []
        for i, message in enumerate(batch.messages()):
            if self.delivered(message, rng):
                rows.append(i)
                delays.append(latency.sample(rng))
        return np.array(rows, dtype=np.int64), np.array(delays, dtype=np.float64)


class NoFailures(FailureModel):
    """Reliable delivery — the paper's standing assumption."""

    def delivered(self, message: Message, rng: np.random.Generator) -> bool:
        return True

    def survivors(self, batch, rng, latency):
        return np.arange(len(batch)), latency.delays(len(batch), rng)


class DropUniform(FailureModel):
    """Drop each message independently with probability ``drop_prob``."""

    def __init__(self, drop_prob: float) -> None:
        if not (0.0 <= drop_prob < 1.0):
            raise ValueError(f"drop_prob must be in [0, 1), got {drop_prob}")
        self.drop_prob = drop_prob

    def delivered(self, message: Message, rng: np.random.Generator) -> bool:
        return float(rng.random()) >= self.drop_prob

    def survivors(self, batch, rng, latency):
        """The scalar loop's rows and delays; vectorised where the delay takes 0 or 1 uniform.

        Every message takes one double for its drop decision, so with a
        :class:`~repro.network.events.FixedLatency`, which draws nothing,
        the batch's decisions are one ``rng.random(k)``.  A
        :class:`~repro.network.events.UniformLatency` takes one more double
        per survivor, and :meth:`_uniform_survivors` walks that stream as
        one block.  Batches below :data:`WALK_FROM` messages and other
        latency models keep the loop.
        """
        k = len(batch)
        if k >= WALK_FROM:
            if isinstance(latency, FixedLatency):
                rows = np.flatnonzero(rng.random(k) >= self.drop_prob)
                return rows, latency.delays(rows.shape[0], rng)
            if isinstance(latency, UniformLatency):
                return self._uniform_survivors(k, rng, latency)
        random, sample, drop_prob = rng.random, latency.sample, self.drop_prob
        rows, delays = [], []
        for i in range(k):
            if random() >= drop_prob:
                rows.append(i)
                delays.append(sample(rng))
        return np.array(rows, dtype=np.int64), np.array(delays, dtype=np.float64)

    def _uniform_survivors(
        self, k: int, rng: np.random.Generator, latency: UniformLatency
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Survivors and delays of ``k ≥ 1`` messages from one block of the loop's doubles.

        Position ``j`` of the stream holds a drop draw unless position
        ``j − 1`` held a survivor's drop draw.  So a double that would drop
        its message, or the start of the stream, makes the next position a
        drop draw, and from there drop and delay draws alternate for as long
        as the doubles would survive: a drop draw is an even distance from
        the last such reset.  ``k`` messages take at most ``2k`` doubles.
        They are drawn after saving the generator's state, walked, and the
        state is restored and advanced by exactly the doubles the loop
        would have used, so the generator never runs ahead of it.
        """
        state = rng.bit_generator.state
        x = rng.random(2 * k)
        keep = x >= self.drop_prob
        pos = np.arange(2 * k)
        reset = pos.copy()
        reset[1:][keep[:-1]] = 0  # no reset after a double that would survive
        np.maximum.accumulate(reset, out=reset)  # the last reset at or before each position
        draws = np.flatnonzero((pos - reset) % 2 == 0)[:k]
        survived = keep[draws]
        rows = np.flatnonzero(survived)
        rng.bit_generator.state = state
        rng.random(int(draws[-1]) + 1 + int(survived[-1]))
        return rows, latency.from_uniforms(x[draws[rows] + 1])


class DropBurst(FailureModel):
    """Correlated (bursty) loss: a two-state Gilbert–Elliott channel.

    The channel is either *good* (every message delivered) or *bad* (every
    message dropped) and flips state between messages: good → bad with
    probability ``p_bad`` and bad → good with probability ``p_recover``.
    The stationary loss rate is ``p_bad / (p_bad + p_recover)`` with mean
    burst length ``1 / p_recover`` — unlike :class:`DropUniform`, losses
    arrive in runs, which is what overload and route flaps look like.
    """

    def __init__(self, p_bad: float, p_recover: float) -> None:
        if not (0.0 <= p_bad < 1.0):
            raise ValueError(f"p_bad must be in [0, 1), got {p_bad}")
        if not (0.0 < p_recover <= 1.0):
            raise ValueError(f"p_recover must be in (0, 1], got {p_recover}")
        self.p_bad = p_bad
        self.p_recover = p_recover
        self._bad = False

    def delivered(self, message: Message, rng: np.random.Generator) -> bool:
        flip = self.p_recover if self._bad else self.p_bad
        if float(rng.random()) < flip:
            self._bad = not self._bad
        return not self._bad


class FaultInjector:
    """Deterministic worker-death schedule for crash-tolerance tests.

    An injector is handed to the trial runner
    (``run_trials(fault_injector=...)``).  The schedule is consumed in the
    **parent** at submit time — :meth:`take_trial` returns the fault
    *directive* (``"exit"`` / ``"raise"``) exactly ``times`` times per
    scheduled trial, and ``None`` thereafter — and only the directive
    travels in the task payload.  (Consuming worker-side would re-fire on
    every retry: each resubmission pickles a fresh copy of the parent's
    counters.)  The worker executes its directive via :meth:`execute`
    before any real work runs, so an injected death costs no partial
    state.

    ``mode="exit"`` (the default) has the worker call ``os._exit(1)`` so
    the pool sees genuine worker death (``BrokenProcessPool``), exactly
    what a crash or an OOM kill produces; ``mode="raise"`` raises
    :class:`InjectedFault` instead, modelling a deterministic in-task
    error that must *not* be retried.

    Because the schedule is attempt-aware, ``times=1`` kills only the
    first attempt: the retry draws directive ``None``, succeeds, and the
    test can assert the recovered results equal an uninjected run's.
    """

    def __init__(self, mode: str = "exit") -> None:
        if mode not in ("exit", "raise"):
            raise ValueError(f"mode must be 'exit' or 'raise', got {mode!r}")
        self.mode = mode
        self._trials: Dict[int, int] = {}

    def kill_trial(self, trial_index: int, times: int = 1) -> "FaultInjector":
        """Schedule death of the worker running ``trial_index`` (first ``times`` attempts)."""
        self._trials[int(trial_index)] = int(times)
        return self

    def _consume(self, table: Dict, key) -> bool:
        remaining = table.get(key, 0)
        if remaining <= 0:
            return False
        table[key] = remaining - 1
        return True

    def take_trial(self, trial_index: int) -> "str | None":
        """Parent-side: consume one scheduled attempt for ``trial_index``."""
        if self._consume(self._trials, int(trial_index)):
            return self.mode
        return None

    @staticmethod
    def execute(directive: "str | None", where: str) -> None:
        """Worker-side: act on a directive taken by the parent (no-op on ``None``)."""
        if directive == "exit":
            os._exit(1)
        if directive == "raise":
            raise InjectedFault(f"injected fault at {where}")


class InjectedFault(RuntimeError):
    """Raised by a ``mode='raise'`` :class:`FaultInjector` in place of worker death."""
