"""Seeded message-stream pins for the network engine.

Each configuration runs the 16-cycle with ``rng=5`` for 40 rounds
(``NetworkSimulator.step``) or 40 ticks (``AsyncNetworkSimulator.run_ticks``)
and must end with exactly the recorded counts, contact graph and generator
state.  The digests cover ``sorted(contact_graph().edge_list())`` and
``rng.bit_generator.state``, so any change to the order of protocol,
drop or delay draws, or to which messages are delivered, moves a pin.
The values were recorded on the per-message engine that preceded the
batched one; ``benchmarks/perf/expected.json`` pins push at n = 64 only.
"""

import hashlib

import pytest

from repro.graphs import generators as gen
from repro.network import (
    AsyncNetworkSimulator,
    ChurnSchedule,
    DropUniform,
    FixedLatency,
    NetworkSimulator,
    NoFailures,
    PartitionSchedule,
    UniformLatency,
)

ROUNDS = 40


def _sync(protocol, failures):
    return NetworkSimulator(gen.cycle_graph(16), protocol, rng=5, failures=failures)


def _async(protocol, **kwargs):
    return AsyncNetworkSimulator(gen.cycle_graph(16), protocol, rng=5, **kwargs)


def _faults(protocol):
    # The churn, ping, drop and jitter setup of TestEventDeterminism.
    return _async(
        protocol,
        failures=DropUniform(0.15),
        latency=UniformLatency(0.05, 1.4),
        churn=ChurnSchedule.poisson(16, 0.1, 30.0, seed=99, downtime=3.0),
        ping_interval=1.0,
        ping_timeout=2.0,
    )


CONFIGS = {
    "sync": lambda p: _sync(p, NoFailures()),
    "sync_drop": lambda p: _sync(p, DropUniform(0.1)),
    "fixed": lambda p: _async(p, latency=FixedLatency(0.45)),
    "drop_jitter": lambda p: _async(
        p, failures=DropUniform(0.1), latency=UniformLatency(0.05, 1.5)
    ),
    "faults": _faults,
    "pull_fixed": lambda p: _async(p, latency=FixedLatency(0.25)),
    # Latencies past a third of a tick mix one tick's replies and connects
    # with the next tick's requests in one delivered batch.
    "pull_mixed": lambda p: _async(p, latency=FixedLatency(0.7)),
    "pull_mixed_faults": lambda p: _async(
        p,
        latency=FixedLatency(0.45),
        churn=ChurnSchedule([(2.0, "leave", 1), (9.5, "join", 1)]),
        partitions=PartitionSchedule.split_heal(3.0, 12.0, [range(8)]),
        ping_interval=1.0,
        ping_timeout=3.0,
    ),
}

#: (protocol, config) -> (rounds or ticks, messages_sent, messages_dropped,
#: discoveries, contact-graph digest, generator-state digest).
PINS = {
    ("push", "sync"): (40, 1094, 0, 204, "0ecc2933a4f352a3", "9f5107e1c82ff070"),
    ("push", "sync_drop"): (40, 1130, 110, 199, "483fad27b846fc59", "8b3c5436f28cbc0d"),
    ("push", "fixed"): (40, 1094, 0, 204, "0ecc2933a4f352a3", "9f5107e1c82ff070"),
    ("push", "drop_jitter"): (40, 1092, 114, 194, "ce4cfa4b81e19760", "2a11d37c8a7c3a42"),
    ("push", "faults"): (40, 1046, 173, 193, "760fa76e7e9c692e", "eb8af4173739b884"),
    ("name_dropper", "sync"): (40, 640, 0, 208, "f568fc74328fef3a", "2a95d1c0b26c86a4"),
    ("name_dropper", "sync_drop"): (40, 640, 73, 208, "f568fc74328fef3a", "32ac3480744d3c48"),
    ("name_dropper", "fixed"): (40, 640, 0, 208, "f568fc74328fef3a", "2a95d1c0b26c86a4"),
    ("name_dropper", "drop_jitter"): (40, 640, 68, 208, "f568fc74328fef3a", "959289fc3f36c768"),
    ("name_dropper", "faults"): (40, 634, 108, 224, "f568fc74328fef3a", "79eb7f868fcf7c03"),
    ("pull", "sync"): (40, 1847, 0, 206, "8dd0f32102614ab6", "56ff4c2e9855108b"),
    ("pull", "pull_fixed"): (40, 1847, 0, 206, "8dd0f32102614ab6", "56ff4c2e9855108b"),
    ("pull", "pull_mixed"): (40, 1832, 0, 208, "f568fc74328fef3a", "56ff4c2e9855108b"),
    ("pull", "pull_mixed_faults"): (40, 1755, 0, 210, "68103059230c713f", "67900218af589614"),
}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


@pytest.mark.parametrize("protocol,config", sorted(PINS))
def test_message_stream_pin(protocol, config):
    sim = CONFIGS[config](protocol)
    if isinstance(sim, NetworkSimulator):
        for _ in range(ROUNDS):
            sim.step()
        steps = sim.stats.rounds
    else:
        sim.run_ticks(ROUNDS)
        steps = sim.stats.ticks
    stats = sim.stats
    got = (
        steps,
        stats.messages_sent,
        stats.messages_dropped,
        stats.discoveries,
        _digest(sorted(sim.contact_graph().edge_list())),
        _digest(sim.rng.bit_generator.state),
    )
    assert got == PINS[protocol, config]
