"""Event primitives for the network engine.

Everything the engine schedules lives on one :class:`EventQueue`, in one
``(time, seq)`` order, where ``seq`` is a monotonically increasing
insertion counter.  Ticks, churn, partitions and ping timers are
:class:`Event` objects on a binary heap; messages in flight are arrays
(:class:`~repro.network.message.MessageBatch` rows with their landing
times), and every row takes its ``seq`` from the same counter.  The
tie-break makes processing *fully deterministic*: two runs with the same
seed and the same schedules deliver the same messages and handle the
same events in the same order.

The module also holds the pluggable ingredients of the failure story:

* :class:`LatencyModel` — per-message delivery delay
  (:class:`FixedLatency` draws nothing from the RNG, so zero-variance
  runs consume the exact synchronous random stream;
  :class:`UniformLatency` / :class:`ExponentialLatency` add jitter).
* :class:`ChurnSchedule` — timestamped node leave/join events, either
  written explicitly or generated by :meth:`ChurnSchedule.poisson` from a
  rate (with its own seed, so churn never perturbs protocol draws).
* :class:`PartitionSchedule` — timestamped partition/heal events; while a
  partition is active, messages crossing group boundaries are lost.
"""

from __future__ import annotations

import abc
import enum
import heapq
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.message import MessageBatch

__all__ = [
    "EventKind",
    "Event",
    "EventQueue",
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "ExponentialLatency",
    "ChurnSchedule",
    "PartitionSchedule",
]


class EventKind(enum.Enum):
    """Everything that can happen in the asynchronous simulator."""

    #: cohort activation: all alive nodes originate their protocol messages.
    TICK = "tick"
    #: a message arrives at its receiver (the event-log label of a delivered row).
    MESSAGE = "message"
    #: a node comes (back) up.
    JOIN = "join"
    #: a node goes down.
    LEAVE = "leave"
    #: the network splits into groups (data: sequence of node groups).
    PARTITION = "partition"
    #: the partition heals.
    HEAL = "heal"
    #: a node's liveness-probe timer fires.
    PING_TIMER = "ping_timer"
    #: a liveness probe went unanswered for the timeout (data: ping id).
    PING_TIMEOUT = "ping_timeout"


@dataclass(order=True)
class Event:
    """One scheduled occurrence; ordered by ``(time, seq)`` only."""

    time: float
    seq: int
    kind: EventKind = field(compare=False)
    data: Any = field(compare=False, default=None)


class EventQueue:
    """Deterministic timestamped events and messages in flight.

    Events sit on a heap; messages in flight are batch rows with landing
    times.  Both draw ``seq`` from one counter, and ties in ``time`` are
    broken by ``seq``, never by payload comparison, so processing order
    is a pure function of the push sequence.  ``len`` and truth count
    events only.
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._next_seq = 0
        # Messages posted since the last merge, each chunk in seq order,
        # and the merged rows in (time, seq) order.
        self._posted: List[Tuple[MessageBatch, np.ndarray, np.ndarray]] = []
        self._flight: Optional[Tuple[MessageBatch, np.ndarray, np.ndarray]] = None

    def push(self, time: float, kind: EventKind, data: Any = None) -> Event:
        """Schedule ``kind`` at ``time``; returns the created event."""
        if not np.isfinite(time) or time < 0.0:
            raise ValueError(f"event time must be finite and non-negative, got {time}")
        event = Event(float(time), self._next_seq, kind, data)
        self._next_seq += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        return heapq.heappop(self._heap)

    def peek(self) -> Event:
        """The earliest event without removing it."""
        return self._heap[0]

    def post(self, batch: MessageBatch, times: np.ndarray) -> None:
        """Put every row of ``batch`` in flight, row ``i`` landing at ``times[i]``.

        The rows take consecutive ``seq`` values in row order.
        """
        if not np.isfinite(times).all() or np.count_nonzero(times < 0.0):
            raise ValueError(f"message times must be finite and non-negative, got {times}")
        seqs = np.arange(self._next_seq, self._next_seq + len(batch))
        self._next_seq += len(batch)
        self._posted.append((batch, times, seqs))

    def messages_before(self, event: Event) -> int:
        """How many messages in flight come before ``event`` in ``(time, seq)`` order."""
        if self._posted:
            self._merge()
        if self._flight is None:
            return 0
        _, times, seqs = self._flight
        lo = int(times.searchsorted(event.time, "left"))
        hi = int(times.searchsorted(event.time, "right"))
        return lo + int(np.count_nonzero(seqs[lo:hi] < event.seq))

    def in_flight(self) -> Tuple[MessageBatch, np.ndarray, np.ndarray]:
        """The rows in flight, their landing times and seqs, in ``(time, seq)`` order.

        Call after :meth:`messages_before` returned a positive count.
        """
        return self._flight

    def pop_messages(self, count: int) -> Tuple[MessageBatch, np.ndarray, np.ndarray]:
        """Remove and return the first ``count`` rows of :meth:`in_flight`."""
        batch, times, seqs = self._flight
        if count == len(batch):
            self._flight = None
            return batch, times, seqs
        self._flight = (batch.section(count, len(batch)), times[count:], seqs[count:])
        return batch.section(0, count), times[:count], seqs[:count]

    def _merge(self) -> None:
        # Rows in flight are older than every posted row, so the chunks
        # run in seq order; they need a sort only when a time goes down.
        chunks = ([self._flight] if self._flight is not None else []) + self._posted
        self._posted = []
        batch = MessageBatch.concat([c[0] for c in chunks])
        times = np.concatenate([c[1] for c in chunks])
        seqs = np.concatenate([c[2] for c in chunks])
        if np.count_nonzero(times[1:] < times[:-1]):
            order = np.lexsort((seqs, times))
            batch, times, seqs = batch.take(order), times[order], seqs[order]
        self._flight = (batch, times, seqs)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


# --------------------------------------------------------------------------- #
# latency models
# --------------------------------------------------------------------------- #
class LatencyModel(abc.ABC):
    """Delivery delay of a message (in simulated time units)."""

    #: the smallest delay the model returns.  A delivered batch that
    #: sends follow-ups ends this long after its first landing time, so
    #: no follow-up can fall due inside the batch that sent it.
    min_delay: float = 0.0

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """One delay between send and delivery."""

    def delays(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` delays: the values ``count`` calls to :meth:`sample` return."""
        return np.array([self.sample(rng) for _ in range(count)], dtype=np.float64)


class FixedLatency(LatencyModel):
    """Constant delay; consumes no randomness.

    The zero-variance model: with ``FixedLatency(d)``, ``d`` below the
    tick interval, and no failures, the engine runs lock-step rounds
    (and, because nothing is drawn from the RNG here, with the identical
    random stream).
    """

    def __init__(self, delay: float = 0.5) -> None:
        if delay < 0.0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.delay = float(delay)
        self.min_delay = self.delay

    def sample(self, rng: np.random.Generator) -> float:
        return self.delay

    def delays(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(count, self.delay)

    def __repr__(self) -> str:
        return f"FixedLatency({self.delay})"


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from ``[low, high]``.

    A delay is ``low + (high - low) · u`` for one uniform ``u``, the value
    ``rng.uniform(low, high)`` returns for the same draw.
    """

    def __init__(self, low: float, high: float) -> None:
        if not (0.0 <= low <= high):
            raise ValueError(f"need 0 <= low <= high, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)
        self.min_delay = self.low
        self._span = self.high - self.low

    def sample(self, rng: np.random.Generator) -> float:
        return self.from_uniforms(rng.random())

    def delays(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return self.from_uniforms(rng.random(count))

    def from_uniforms(self, u: float | np.ndarray) -> float | np.ndarray:
        """The delay each uniform of ``u`` gives (a float for a float, an array for an array)."""
        return self.low + self._span * u

    def __repr__(self) -> str:
        return f"UniformLatency({self.low}, {self.high})"


class ExponentialLatency(LatencyModel):
    """Heavy-ish tailed delay: ``base + Exponential(mean)``."""

    def __init__(self, mean: float, base: float = 0.0) -> None:
        if mean <= 0.0 or base < 0.0:
            raise ValueError(f"need mean > 0 and base >= 0, got {mean}, {base}")
        self.mean = float(mean)
        self.base = float(base)
        self.min_delay = self.base

    def sample(self, rng: np.random.Generator) -> float:
        return self.base + float(rng.exponential(self.mean))

    def __repr__(self) -> str:
        return f"ExponentialLatency({self.mean}, base={self.base})"


# --------------------------------------------------------------------------- #
# fault schedules
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _ChurnEntry:
    time: float
    kind: str  # "leave" | "join"
    node: int


class ChurnSchedule:
    """Timestamped node leave/join events.

    Entries are ``(time, "leave" | "join", node_id)``.  A leave takes the
    node down: it stops acting at ticks, and messages arriving while it is
    down are lost.  A join brings it back up with the contact list it had
    when it left (crash-recovery semantics); the ID space is fixed, so
    "join" always means *rejoin* of a known ID.
    """

    def __init__(self, entries: Iterable[Tuple[float, str, int]] = ()) -> None:
        parsed = []
        for time, kind, node in entries:
            if kind not in ("leave", "join"):
                raise ValueError(f"churn kind must be 'leave' or 'join', got {kind!r}")
            if time < 0.0:
                raise ValueError(f"churn time must be non-negative, got {time}")
            parsed.append(_ChurnEntry(float(time), kind, int(node)))
        # Stable sort: same-time entries keep their authored order.
        self.entries: List[_ChurnEntry] = sorted(parsed, key=lambda e: e.time)

    @classmethod
    def poisson(
        cls,
        n: int,
        rate: float,
        horizon: float,
        seed: int,
        downtime: float = 5.0,
    ) -> "ChurnSchedule":
        """Random churn: leaves arrive as a Poisson process of ``rate``.

        Each arrival takes one uniformly chosen node down for ``downtime``
        time units (nodes already scheduled down are skipped).  The
        schedule is generated up front from its *own* seeded generator, so
        identical parameters give identical churn without consuming any
        draws from the protocol RNG.
        """
        if rate < 0.0:
            raise ValueError(f"rate must be non-negative, got {rate}")
        entries: List[Tuple[float, str, int]] = []
        if rate == 0.0 or n == 0:
            return cls(entries)
        rng = np.random.default_rng(seed)
        down_until = np.zeros(n)
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / rate))
            if t >= horizon:
                break
            node = int(rng.integers(n))
            if down_until[node] > t:
                continue
            entries.append((t, "leave", node))
            entries.append((t + downtime, "join", node))
            down_until[node] = t + downtime
        return cls(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"ChurnSchedule({len(self.entries)} events)"


@dataclass(frozen=True)
class _PartitionEntry:
    time: float
    groups: Optional[Tuple[Tuple[int, ...], ...]]  # None = heal


class PartitionSchedule:
    """Timestamped partition/heal events.

    Each entry is ``(time, groups)`` where ``groups`` is a sequence of
    node-ID groups (nodes not listed form one implicit remainder group),
    or ``(time, None)`` to heal.  While a partition is active, a message
    whose endpoints sit in different groups at *delivery* time is lost —
    messages already in flight when the split happens are cut too.
    """

    def __init__(
        self, entries: Iterable[Tuple[float, Optional[Sequence[Sequence[int]]]]] = ()
    ) -> None:
        parsed = []
        for time, groups in entries:
            if time < 0.0:
                raise ValueError(f"partition time must be non-negative, got {time}")
            frozen = (
                None
                if groups is None
                else tuple(tuple(int(u) for u in group) for group in groups)
            )
            parsed.append(_PartitionEntry(float(time), frozen))
        self.entries: List[_PartitionEntry] = sorted(parsed, key=lambda e: e.time)

    @classmethod
    def split_heal(
        cls,
        split_time: float,
        heal_time: float,
        groups: Sequence[Sequence[int]],
    ) -> "PartitionSchedule":
        """One partition into ``groups`` at ``split_time``, healed at ``heal_time``."""
        if heal_time < split_time:
            raise ValueError("heal_time must not precede split_time")
        return cls([(split_time, groups), (heal_time, None)])

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"PartitionSchedule({len(self.entries)} events)"
