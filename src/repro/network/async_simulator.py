"""The network engine: batched message delivery on a virtual clock.

The engine advances a virtual clock through one deterministic
:class:`~repro.network.events.EventQueue`.  At each *tick* every alive
node originates protocol messages as one
:class:`~repro.network.message.MessageBatch`; each message lands after a
delay drawn from a pluggable :class:`~repro.network.events.LatencyModel`;
faults are first-class — message loss (a
:class:`~repro.network.failures.FailureModel`), node leave/join churn,
partition/heal — and dead contacts are evicted through liveness pings.

Messages in flight are arrays ordered by ``(time, seq)``.  Each step
delivers, as one batch in that order, every message that comes before
the queue's next event (a tick, churn, a partition, a ping timer or
timeout).  A batch holding a kind that is answered (a pull request or
reply, a ping) ends at its first landing time plus the latency model's
minimum delay, so no follow-up can fall due inside the batch that sent
it.  Locality, loss, dead receivers, partition cuts and all accounting
are array operations over the batch.  Every draw keeps the order of
sending the rows one at a time — per message ``drop₁, delay₁, drop₂, …``,
a delay only for a survivor — so the random stream does not depend on
how the rows were batched.

:class:`NetworkSimulator` is the paper's idealization as a configuration
of this engine: lock-step rounds are ticks with ``FixedLatency(0.25)``
(pull's three hops land inside one tick), no churn, partitions or pings.
Every request of a tick is delivered before any reply lands, so replies
sample the round-start state.  In that configuration the push protocol
replays :class:`repro.core.push.PushDiscovery` draw for draw.

All protocol randomness flows through one generator; churn and ping
randomness come from separate seeded generators, so fault machinery
never perturbs protocol draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.baselines._packed import require_undirected
from repro.graphs import bitset
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph, EdgeArrays
from repro.network.events import (
    ChurnSchedule,
    Event,
    EventKind,
    EventQueue,
    FixedLatency,
    LatencyModel,
    PartitionSchedule,
)
from repro.network.failures import FailureModel, NoFailures
from repro.network.message import LocalityError, Message, MessageBatch, MessageKind, kind_code
from repro.network.protocols import GossipProtocol, resolve_protocol

__all__ = ["AsyncNetworkSimulator", "NetworkSimulator", "SimulationStats"]

_PING = kind_code(MessageKind.PING)
#: discovery batches held back before they are folded into the knowledge graph.
_FOLD_EVERY = 256


@dataclass
class SimulationStats:
    """Cumulative accounting for one simulation.

    Message counts cover protocol messages; pings and pongs have their
    own counters.  The ``per_round_*`` series hold one entry per tick.
    """

    time: float = 0.0
    ticks: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    #: delivered to a node that was down at delivery time.
    messages_lost_dead: int = 0
    #: cut by an active partition at delivery time.
    messages_lost_partition: int = 0
    bits_sent: int = 0
    discoveries: int = 0
    joins: int = 0
    leaves: int = 0
    pings_sent: int = 0
    pongs_received: int = 0
    evictions: int = 0
    per_round_messages: List[int] = field(default_factory=list)
    per_round_bits: List[int] = field(default_factory=list)
    #: largest number of bits any single node sent in each tick.
    per_round_max_node_bits: List[int] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        """Ticks run: the round count of the lock-step configuration."""
        return self.ticks


class AsyncNetworkSimulator:
    """Event-queue simulator for the message-level discovery protocols.

    Parameters
    ----------
    graph:
        Starting topology; node ``u``'s initial contact list is its
        neighbour list (insertion order preserved).  The graph is not
        mutated.
    protocol:
        A :class:`GossipProtocol` instance or one of ``"push"``,
        ``"pull"``, ``"name_dropper"``.
    rng:
        Seed or generator for all *protocol* randomness.
    failures:
        Per-message loss model applied at send time (default: reliable).
    latency:
        Per-message delivery delay (default ``FixedLatency(0.5)``).
    tick_interval:
        Virtual time between activations.  For tick-vs-round comparisons
        keep all latencies below this (below a third of it for pull,
        whose rounds are three message hops deep).
    churn:
        Optional :class:`ChurnSchedule` of leave/join events.
    partitions:
        Optional :class:`PartitionSchedule` of partition/heal events.
    ping_interval, ping_timeout, ping_misses:
        Enable liveness probing by passing ``ping_interval``: every alive
        node pings one random contact each interval and evicts it after
        ``ping_misses`` *consecutive* probes go unanswered for
        ``ping_timeout`` each (a single miss is not proof of death when
        the failure model also drops pings).  Ping target/loss/latency
        randomness uses a generator seeded with ``liveness_seed`` so the
        protocol stream is untouched.
    record_events:
        Keep a log of processed events and delivered messages
        (``event_log``) for determinism tests and debugging.
    """

    def __init__(
        self,
        graph: ArrayGraph,
        protocol: Union[GossipProtocol, str] = "push",
        rng: Union[np.random.Generator, int, None] = None,
        failures: Optional[FailureModel] = None,
        latency: Optional[LatencyModel] = None,
        tick_interval: float = 1.0,
        churn: Optional[ChurnSchedule] = None,
        partitions: Optional[PartitionSchedule] = None,
        ping_interval: Optional[float] = None,
        ping_timeout: float = 2.0,
        ping_misses: int = 3,
        liveness_seed: int = 0x5EED,
        record_events: bool = False,
    ) -> None:
        require_undirected(graph, type(self).__name__)
        if tick_interval <= 0.0:
            raise ValueError(f"tick_interval must be positive, got {tick_interval}")
        if ping_interval is not None and ping_interval <= 0.0:
            raise ValueError(f"ping_interval must be positive, got {ping_interval}")
        if ping_misses < 1:
            raise ValueError(f"ping_misses must be at least 1, got {ping_misses}")
        self.n = graph.n
        self.protocol = resolve_protocol(protocol)
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.failures = failures if failures is not None else NoFailures()
        self.latency = latency if latency is not None else FixedLatency(0.5)
        self.tick_interval = float(tick_interval)
        self.ping_interval = None if ping_interval is None else float(ping_interval)
        self.ping_timeout = float(ping_timeout)
        self.ping_misses = int(ping_misses)
        self.stats = SimulationStats()
        #: who knows whom: edge ``u -> v`` when ``v`` is in ``u``'s contact list.
        self.contacts = ArrayDiGraph(self.n)
        rows = [list(graph.neighbors(u)) for u in graph.nodes()]
        self.contacts.add_edges_batch_arrays(
            np.repeat(np.arange(self.n), [len(row) for row in rows]),
            np.array([v for row in rows for v in row], dtype=np.int64),
        )
        self._knowledge = graph.copy()
        # Discoveries not yet folded into the knowledge graph.
        self._found: List[EdgeArrays] = []
        self.event_log: Optional[List[Tuple[float, int, str, object]]] = (
            [] if record_events else None
        )

        self._alive = np.ones(self.n, dtype=bool)
        self._clock = 0.0
        self._queue = EventQueue()
        # Bit u, v: node u heard from v or was handed v's ID.
        self._heard = bitset.zeros(self.n, self.n)
        self._group: Optional[np.ndarray] = None
        self._tick_bits = np.zeros(self.n, dtype=np.int64)
        answered = [kind_code(k) for k in self.protocol.answered | {MessageKind.PING}]
        self._answered = np.isin(np.arange(len(MessageKind)), answered)
        self._liveness_rng = np.random.default_rng(liveness_seed)
        self._pending_pings: Dict[int, Tuple[int, int]] = {}
        self._miss_counts: Dict[Tuple[int, int], int] = {}
        self._next_ping_id = 0

        # Fault schedules go on the heap first so a fault at time t takes
        # effect before the tick at t (ticks are pushed lazily, with later
        # sequence numbers).
        for entry in (churn.entries if churn is not None else ()):
            if not (0 <= entry.node < self.n):
                raise ValueError(f"churn node {entry.node} out of range for n={self.n}")
            kind = EventKind.LEAVE if entry.kind == "leave" else EventKind.JOIN
            self._queue.push(entry.time, kind, entry.node)
        for entry in (partitions.entries if partitions is not None else ()):
            kind = EventKind.HEAL if entry.groups is None else EventKind.PARTITION
            self._queue.push(entry.time, kind, entry.groups)
        if self.ping_interval is not None:
            for u in range(self.n):
                self._queue.push(self.ping_interval, EventKind.PING_TIMER, u)
        self._queue.push(0.0, EventKind.TICK)

    # ------------------------------------------------------------------ #
    # services used by the protocols
    # ------------------------------------------------------------------ #
    def send(self, message: Message) -> bool:
        """Dispatch one ``message`` at the current virtual time.

        Enforces the locality model (:class:`LocalityError` when the
        sender addresses an ID it neither holds as a contact nor ever
        heard of), applies the failure model, and — when the message
        survives — puts it in flight after a latency drawn from the
        latency model.  Returns True when delivery was scheduled (the
        message may still be lost to churn or a partition when it lands).
        """
        return self._send(MessageBatch.of([message]), np.array([self._clock])) > 0

    def learn(self, us: np.ndarray, vs: np.ndarray) -> None:
        """Node ``us[i]`` stores ``vs[i]`` as a contact, in order.

        Self references and known contacts are skipped; every new contact
        counts as a discovery in the measurement view.
        """
        if us.shape[0]:
            new = self.contacts.add_edges_batch_arrays(us, vs)
            if len(new):
                self.stats.discoveries += len(new)
                self._found.append(new)
                if len(self._found) >= _FOLD_EVERY:
                    self._fold_discoveries()

    @property
    def knowledge_graph(self) -> ArrayGraph:
        """Who learned whom: the start graph plus every discovery, undirected.

        A measurement view the nodes never see.  Unlike the contact lists
        it never loses an edge to eviction.
        """
        self._fold_discoveries()
        return self._knowledge

    def _fold_discoveries(self) -> None:
        if self._found:
            us = np.concatenate([e.us for e in self._found])
            vs = np.concatenate([e.vs for e in self._found])
            self._found = []
            self._knowledge.add_edges_batch_arrays(us, vs)

    # ------------------------------------------------------------------ #
    # event loop
    # ------------------------------------------------------------------ #
    def run_ticks(self, ticks: int) -> SimulationStats:
        """Advance through ``ticks`` further activations.

        Processes every event and message scheduled before the tick
        *after* the last requested one, so with latencies below the tick
        interval the post-call state is directly comparable to lock-step
        rounds.
        """
        if ticks < 0:
            raise ValueError("ticks must be non-negative")
        target = self.stats.ticks + ticks
        queue = self._queue
        while queue:
            head = queue.peek()
            due = queue.messages_before(head)
            if due:
                self._deliver(*queue.pop_messages(self._batch_size(due)))
                continue
            if head.kind is EventKind.TICK and self.stats.ticks >= target:
                break
            queue.pop()
            self._clock = self.stats.time = head.time
            self._handle(head)
        return self.stats

    def step(self) -> None:
        """Advance one activation (one tick)."""
        self.run_ticks(1)

    def run_to_convergence(self, max_ticks: int) -> SimulationStats:
        """Run until every alive node knows every other alive node.

        The ``max_ticks`` budget is per-call: a second call runs up to
        ``max_ticks`` further ticks.
        """
        return self._converge(max_ticks)

    def _converge(self, budget: int) -> SimulationStats:
        if budget < 0:
            raise ValueError("the tick budget must be non-negative")
        for _ in range(budget):
            if self.is_converged():
                break
            self.step()
        return self.stats

    def _batch_size(self, due: int) -> int:
        """How many of the ``due`` first messages in flight to deliver as one batch."""
        batch, times, _ = self._queue.in_flight()
        if self._answered[batch.kinds[:due]].any():
            horizon = times[0] + self.latency.min_delay
            due = min(due, int(np.searchsorted(times, horizon, "right")))
        return due

    def _handle(self, event: Event) -> None:
        if self.event_log is not None:
            self.event_log.append((event.time, event.seq, event.kind.value, event.data))
        if event.kind is EventKind.TICK:
            self._handle_tick()
        elif event.kind is EventKind.LEAVE:
            if self._alive[event.data]:
                self._alive[event.data] = False
                self.stats.leaves += 1
        elif event.kind is EventKind.JOIN:
            if not self._alive[event.data]:
                self._alive[event.data] = True
                self.stats.joins += 1
        elif event.kind is EventKind.PARTITION:
            self._group = np.full(self.n, -1)
            for i, group in enumerate(event.data):
                self._group[list(group)] = i
        elif event.kind is EventKind.HEAL:
            self._group = None
        elif event.kind is EventKind.PING_TIMER:
            self._handle_ping_timer(event.data)
        elif event.kind is EventKind.PING_TIMEOUT:
            self._handle_ping_timeout(event.data)

    def _handle_tick(self) -> None:
        stats = self.stats
        stats.ticks += 1
        stats.per_round_messages.append(0)
        stats.per_round_bits.append(0)
        stats.per_round_max_node_bits.append(0)
        self._tick_bits[:] = 0
        batch = self.protocol.initiate_batch(self._alive.nonzero()[0], self)
        if len(batch):
            self._send(batch, np.full(len(batch), self._clock))
        self._queue.push(self._clock + self.tick_interval, EventKind.TICK)

    def _send(self, batch: MessageBatch, sent_at: np.ndarray) -> int:
        """Check, count and put in flight ``batch``, row ``i`` sent at ``sent_at[i]``.

        Returns how many rows survived the failure model.
        """
        senders, receivers = batch.senders, batch.receivers
        known = bitset.get_bits(self.contacts.adjacency_bits(), senders, receivers)
        if not known.all():
            known |= bitset.get_bits(self._heard, senders, receivers)
            if not known.all():
                message = batch.message(int(np.argmin(known)))
                raise LocalityError(
                    f"node {message.sender} cannot address node {message.receiver}: "
                    f"not a contact and never heard of ({message.kind.value} message)"
                )
        stats = self.stats
        liveness = batch.kinds >= _PING
        stats.pings_sent += int(np.count_nonzero(batch.kinds == _PING))
        spoken = (~liveness).nonzero()[0]
        if spoken.shape[0]:
            self._count_sent(batch if spoken.shape[0] == len(batch) else batch.take(spoken))
        # Loss and delay, drawn message by message from the stream of each
        # row's kind: liveness rows use the liveness generator.
        cuts = ((liveness[1:] != liveness[:-1]).nonzero()[0] + 1).tolist()
        survived = 0
        for lo, hi in zip([0] + cuts, cuts + [len(batch)]):
            part = batch if hi - lo == len(batch) else batch.section(lo, hi)
            live = bool(liveness[lo])
            rng = self._liveness_rng if live else self.rng
            rows, delays = self.failures.survivors(part, rng, self.latency)
            if rows.shape[0] == hi - lo:
                self._queue.post(part, sent_at[lo:hi] + delays)
            else:
                if not live:
                    stats.messages_dropped += (hi - lo) - rows.shape[0]
                if rows.shape[0]:
                    self._queue.post(part.take(rows), sent_at[lo:hi][rows] + delays)
            survived += rows.shape[0]
        return survived

    def _count_sent(self, sent: MessageBatch) -> None:
        """Add protocol messages ``sent`` to the totals and to the current tick."""
        stats = self.stats
        bits = sent.bits(self.n)
        total = int(bits.sum())
        stats.messages_sent += len(sent)
        stats.bits_sent += total
        if stats.per_round_messages:
            stats.per_round_messages[-1] += len(sent)
            stats.per_round_bits[-1] += total
            np.add.at(self._tick_bits, sent.senders, bits)
            stats.per_round_max_node_bits[-1] = int(self._tick_bits.max())

    def _deliver(self, batch: MessageBatch, times: np.ndarray, seqs: np.ndarray) -> None:
        """Deliver ``batch`` in row order; row ``i`` lands at ``times[i]``."""
        stats = self.stats
        self._clock = stats.time = float(times[-1])
        if self.event_log is not None:
            for i, (time, seq) in enumerate(zip(times.tolist(), seqs.tolist())):
                m = batch.message(i)
                data = (m.kind.value, m.sender, m.receiver, m.payload)
                self.event_log.append((time, seq, EventKind.MESSAGE.value, data))
        protocol = batch.kinds < _PING
        if self._group is not None or not self._alive.all():
            lost = ~self._alive[batch.receivers]
            stats.messages_lost_dead += int(np.count_nonzero(lost & protocol))
            if self._group is not None:
                cut = ~lost & (self._group[batch.senders] != self._group[batch.receivers])
                stats.messages_lost_partition += int(np.count_nonzero(cut & protocol))
                lost |= cut
            if lost.any():
                rows = np.flatnonzero(~lost)
                batch, times, protocol = batch.take(rows), times[rows], protocol[rows]
        # Heard-of records the sender always, and the payload of protocol
        # kinds only: a ping's payload is a counter, not a node ID.
        spoken = protocol.nonzero()[0]
        told = batch if spoken.shape[0] == len(batch) else batch.take(spoken)
        learners, ids = told.payload_pairs()
        bitset.set_bits(
            self._heard,
            np.concatenate((batch.receivers, learners)),
            np.concatenate((batch.senders, ids)),
        )

        replies: List[MessageBatch] = []
        parents: List[np.ndarray] = []
        if spoken.shape[0]:
            stats.messages_delivered += spoken.shape[0]
            answer = self.protocol.deliver_batch(told, self)
            if answer is not None:
                replies.append(answer[0])
                parents.append(spoken[answer[1]])
        if spoken.shape[0] < len(batch):
            live = np.flatnonzero(~protocol)
            ping_ids = batch.ids[batch.offsets[live]]
            is_ping = batch.kinds[live] == _PING
            pings = live[is_ping]
            pongs = MessageBatch.of_kind(
                MessageKind.PONG, batch.receivers[pings], batch.senders[pings], ping_ids[is_ping]
            )
            replies.append(pongs)
            parents.append(pings)
            for ping_id in ping_ids[~is_ping].tolist():
                pending = self._pending_pings.pop(ping_id, None)
                if pending is not None:
                    stats.pongs_received += 1
                    self._miss_counts.pop(pending, None)
        if replies:
            order = np.concatenate(parents)
            follow_ups = MessageBatch.concat(replies)
            if len(replies) > 1:
                rank = np.argsort(order, kind="stable")
                follow_ups, order = follow_ups.take(rank), order[rank]
            if len(follow_ups):
                self._send(follow_ups, times[order])

    def _handle_ping_timer(self, u: int) -> None:
        degree = int(self.contacts.out_degree(u))
        if self._alive[u] and degree > 0:
            contact = int(self.contacts.out_neighbors(u)[int(self._liveness_rng.integers(degree))])
            ping_id = self._next_ping_id
            self._next_ping_id += 1
            self._pending_pings[ping_id] = (u, contact)
            self._send(
                MessageBatch.of([Message(MessageKind.PING, u, contact, (ping_id,))]),
                np.array([self._clock]),
            )
            self._queue.push(
                self._clock + self.ping_timeout, EventKind.PING_TIMEOUT, ping_id
            )
        # Reschedule even while down — the node may rejoin.
        self._queue.push(self._clock + self.ping_interval, EventKind.PING_TIMER, u)

    def _handle_ping_timeout(self, ping_id: int) -> None:
        pending = self._pending_pings.pop(ping_id, None)
        if pending is None:
            return
        u, contact = pending
        if not self._alive[u]:
            self._miss_counts.pop(pending, None)
            return
        misses = self._miss_counts.get(pending, 0) + 1
        if misses < self.ping_misses:
            self._miss_counts[pending] = misses
            return
        self._miss_counts.pop(pending, None)
        if self.contacts.remove_edge(u, contact):
            self.stats.evictions += 1

    # ------------------------------------------------------------------ #
    # measurement
    # ------------------------------------------------------------------ #
    def is_alive(self, node_id: int) -> bool:
        """True while ``node_id`` is up."""
        return bool(self._alive[node_id])

    def alive_nodes(self) -> List[int]:
        """IDs of the currently-up nodes."""
        return np.flatnonzero(self._alive).tolist()

    def is_converged(self) -> bool:
        """True when every alive node knows every *other alive* node.

        Dead contacts may linger in lists (until pings evict them) — they
        do not block convergence; neither do down nodes' stale views.
        """
        if self._alive.all():
            return self.contacts.number_of_edges() == self.n * (self.n - 1)
        alive = np.flatnonzero(self._alive)
        m = alive.shape[0]
        known = bitset.get_bits(
            self.contacts.adjacency_bits(), np.repeat(alive, m), np.tile(alive, m)
        )
        return int(np.count_nonzero(known)) == m * (m - 1)

    def contact_graph(self) -> ArrayGraph:
        """The current who-knows-whom graph reconstructed from node state."""
        return self.contacts.to_undirected()

    def max_bits_per_node_round(self) -> int:
        """Largest bits any *single* node sent in any single tick.

        This is the quantity the paper's per-node bandwidth claims are
        about: for the push protocol it stays ``O(log n)`` (two IDs per
        round); for Name Dropper it grows to ``Θ(n log n)``.  For pull it
        can exceed the requester-side budget because one node may answer
        every request that lands on it in a round.
        """
        return max(self.stats.per_round_max_node_bits, default=0)

    def max_round_mean_bits_per_node(self) -> int:
        """Largest per-tick *average* bits per node (total bits / n).

        A smoother load measure than :meth:`max_bits_per_node_round`: it
        bounds the mean per-node traffic of the busiest tick, not the
        busiest node's.
        """
        if not self.stats.per_round_bits:
            return 0
        return int(np.ceil(max(self.stats.per_round_bits) / max(self.n, 1)))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(protocol={self.protocol.name!r}, n={self.n}, "
            f"time={self._clock:.2f}, ticks={self.stats.ticks}, "
            f"alive={int(self._alive.sum())})"
        )


class NetworkSimulator(AsyncNetworkSimulator):
    """Lock-step rounds: the engine with ``FixedLatency(0.25)`` and no faults but loss.

    A round is one tick.  Pull's request, reply and connect land at a
    quarter, half and three quarters of it, so every message of a round
    is delivered before the next begins, and every request before any
    reply lands.  ``graph``, ``protocol``, ``rng`` and ``failures`` are
    those of :class:`AsyncNetworkSimulator`; with the push protocol a run
    reproduces the graph-level process on ``graph`` draw for draw.
    """

    def __init__(
        self,
        graph: ArrayGraph,
        protocol: Union[GossipProtocol, str] = "push",
        rng: Union[np.random.Generator, int, None] = None,
        failures: Optional[FailureModel] = None,
    ) -> None:
        super().__init__(graph, protocol, rng, failures, latency=FixedLatency(0.25))

    # The lock-step API is defined on this class itself, so a tracer that
    # wraps the methods a class defines sees rounds apart from ticks.
    step = AsyncNetworkSimulator.step
    send = AsyncNetworkSimulator.send

    def run_to_convergence(self, max_rounds: int) -> SimulationStats:
        """Run until full discovery or ``max_rounds`` *additional* rounds.

        The budget is per-call: a second call runs up to ``max_rounds``
        further rounds.
        """
        return self._converge(max_rounds)
