"""Message-passing substrate: the resource-discovery protocols as explicit messages.

The graph-level processes in :mod:`repro.core` are the mathematical
objects the paper analyses.  This subpackage re-implements them as
*distributed protocols*: every node is an agent holding only its local
contact list, and all information moves through explicit messages with
bit-accounted payloads.  The protocols (:mod:`repro.network.protocols`)
originate and deliver whole :class:`MessageBatch` arrays, and one engine
delivers them:

* :class:`AsyncNetworkSimulator` — a virtual clock with per-message
  latency (:mod:`repro.network.events`), message loss, node churn,
  partitions, and ping-based liveness eviction.
* :class:`NetworkSimulator` — the paper's idealization as a
  configuration of the same engine: lock-step rounds (ticks with a fixed
  latency that fits pull's three hops), optional message loss.

The engine enforces the model's locality (a node can only address its
contacts and IDs it was handed — :class:`LocalityError` otherwise) and
reports true per-``(node, round)`` bandwidth.  Tests cross-validate that
the protocol implementations induce exactly the same random graph
evolution as the graph-level processes; experiment E10 uses the message
accounting for the bandwidth comparison against Name Dropper / flooding,
and ``benchmarks/bench_async.py`` measures how discovery degrades when
the synchronous idealization is relaxed.
"""

from repro.network.message import LocalityError, Message, MessageBatch, MessageKind, id_bits_for
from repro.network.protocols import (
    GossipProtocol,
    PushProtocol,
    PullProtocol,
    NameDropperProtocol,
    resolve_protocol,
)
from repro.network.failures import (
    DropBurst,
    DropUniform,
    FailureModel,
    FaultInjector,
    InjectedFault,
    NoFailures,
)
from repro.network.events import (
    ChurnSchedule,
    Event,
    EventKind,
    EventQueue,
    ExponentialLatency,
    FixedLatency,
    LatencyModel,
    PartitionSchedule,
    UniformLatency,
)
from repro.network.async_simulator import (
    AsyncNetworkSimulator,
    NetworkSimulator,
    SimulationStats,
)

__all__ = [
    "Message",
    "MessageBatch",
    "MessageKind",
    "LocalityError",
    "id_bits_for",
    "GossipProtocol",
    "PushProtocol",
    "PullProtocol",
    "NameDropperProtocol",
    "resolve_protocol",
    "NetworkSimulator",
    "SimulationStats",
    "AsyncNetworkSimulator",
    "FailureModel",
    "NoFailures",
    "DropUniform",
    "DropBurst",
    "FaultInjector",
    "InjectedFault",
    "Event",
    "EventKind",
    "EventQueue",
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "ExponentialLatency",
    "ChurnSchedule",
    "PartitionSchedule",
]
