"""Tests for the asynchronous event-driven simulator (events, faults, equivalence).

The load-bearing property: in the degenerate configuration (constant
latency below the tick interval, no churn, no partitions, ``NoFailures``)
the async engine must reproduce the synchronous ``NetworkSimulator``
discovery trajectory *draw for draw* — same contact graphs after every
round, same RNG state at the end.  Everything else (jitter, drops, churn,
partitions, pings) degrades gracefully from that baseline.
"""

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.network import (
    AsyncNetworkSimulator,
    ChurnSchedule,
    DropUniform,
    EventKind,
    EventQueue,
    ExponentialLatency,
    FixedLatency,
    LocalityError,
    Message,
    MessageBatch,
    MessageKind,
    NetworkSimulator,
    PartitionSchedule,
    UniformLatency,
)


# --------------------------------------------------------------------------- #
# event primitives
# --------------------------------------------------------------------------- #
class TestEventQueue:
    def test_orders_by_time_then_insertion(self):
        q = EventQueue()
        q.push(2.0, EventKind.TICK, "late")
        q.push(1.0, EventKind.TICK, "early-first")
        q.push(1.0, EventKind.TICK, "early-second")
        assert [q.pop().data for _ in range(3)] == [
            "early-first",
            "early-second",
            "late",
        ]

    def test_seq_is_monotonic_across_pops(self):
        q = EventQueue()
        first = q.push(1.0, EventKind.TICK)
        q.pop()
        second = q.push(0.5, EventKind.TICK)
        assert second.seq > first.seq

    def test_rejects_bad_times(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push(-1.0, EventKind.TICK)
        with pytest.raises(ValueError):
            q.push(float("nan"), EventKind.TICK)
        batch = MessageBatch.of([Message(MessageKind.INTRODUCE, 0, 1, (2,))])
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                q.post(batch, np.array([bad]))
        assert q.messages_before(q.push(5.0, EventKind.TICK)) == 0

    def test_messages_interleave_with_events_by_time_then_seq(self):
        q = EventQueue()
        early = q.push(1.0, EventKind.TICK)
        rows = MessageBatch.of([Message(MessageKind.INTRODUCE, 0, 1, (2,))] * 3)
        q.post(rows, np.array([1.0, 0.5, 2.0]))
        late = q.push(1.0, EventKind.TICK)
        # 0.5 precedes both ticks; the 1.0 row was posted after the first tick.
        assert (q.messages_before(early), q.messages_before(late)) == (1, 2)
        batch, times, seqs = q.pop_messages(2)
        assert times.tolist() == [0.5, 1.0] and seqs.tolist() == [2, 1]
        assert q.in_flight()[1].tolist() == [2.0]


class TestLatencyModels:
    def test_fixed_latency_draws_nothing(self):
        rng = np.random.default_rng(0)
        state_before = rng.bit_generator.state
        assert FixedLatency(0.25).sample(rng) == 0.25
        assert rng.bit_generator.state == state_before

    def test_uniform_latency_within_bounds(self, rng):
        model = UniformLatency(0.1, 0.9)
        samples = [model.sample(rng) for _ in range(200)]
        assert all(0.1 <= s <= 0.9 for s in samples)
        assert len(set(samples)) > 1

    def test_uniform_latency_replays_rng_uniform(self):
        # The seeded message pins were recorded with rng.uniform(low, high) delays.
        model = UniformLatency(0.05, 1.5)
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        expected = [float(a.uniform(0.05, 1.5)) for _ in range(50)]
        assert [model.sample(b) for _ in range(50)] == expected

    @pytest.mark.parametrize(
        "model", [FixedLatency(0.3), UniformLatency(0.1, 0.9), ExponentialLatency(0.5, base=0.2)]
    )
    def test_block_delays_equal_scalar_samples(self, model):
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        assert model.delays(40, a).tolist() == [model.sample(b) for _ in range(40)]
        assert a.bit_generator.state == b.bit_generator.state
        assert model.min_delay <= model.delays(200, a).min()

    def test_exponential_latency_above_base(self, rng):
        model = ExponentialLatency(0.5, base=0.2)
        assert all(model.sample(rng) >= 0.2 for _ in range(100))

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedLatency(-0.1)
        with pytest.raises(ValueError):
            UniformLatency(0.5, 0.1)
        with pytest.raises(ValueError):
            ExponentialLatency(0.0)


class TestSchedules:
    def test_churn_entries_sorted_and_validated(self):
        sched = ChurnSchedule([(5.0, "join", 1), (2.0, "leave", 1)])
        assert [e.kind for e in sched.entries] == ["leave", "join"]
        with pytest.raises(ValueError):
            ChurnSchedule([(1.0, "explode", 0)])
        with pytest.raises(ValueError):
            ChurnSchedule([(-1.0, "leave", 0)])

    def test_poisson_churn_is_seed_deterministic(self):
        a = ChurnSchedule.poisson(20, 0.3, 50.0, seed=11, downtime=4.0)
        b = ChurnSchedule.poisson(20, 0.3, 50.0, seed=11, downtime=4.0)
        assert a.entries == b.entries
        assert len(a) > 0
        # Every leave is paired with a join downtime later.
        leaves = [e for e in a.entries if e.kind == "leave"]
        joins = {(e.time, e.node) for e in a.entries if e.kind == "join"}
        assert all((e.time + 4.0, e.node) in joins for e in leaves)

    def test_zero_rate_churn_is_empty(self):
        assert len(ChurnSchedule.poisson(10, 0.0, 100.0, seed=1)) == 0

    def test_partition_split_heal(self):
        sched = PartitionSchedule.split_heal(1.0, 5.0, [[0, 1], [2, 3]])
        assert len(sched) == 2
        assert sched.entries[0].groups == ((0, 1), (2, 3))
        assert sched.entries[1].groups is None
        with pytest.raises(ValueError):
            PartitionSchedule.split_heal(5.0, 1.0, [[0], [1]])


# --------------------------------------------------------------------------- #
# degenerate equivalence with the synchronous engine
# --------------------------------------------------------------------------- #
class TestSynchronousEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_async_push_replays_synchronous_trajectory(self, seed):
        """Zero jitter + no churn + NoFailures: tick r == round r, draw for draw."""
        sync = NetworkSimulator(
            gen.cycle_graph(14), protocol="push", rng=np.random.default_rng(seed)
        )
        asyn = AsyncNetworkSimulator(
            gen.cycle_graph(14),
            protocol="push",
            rng=np.random.default_rng(seed),
            latency=FixedLatency(0.5),
        )
        for _ in range(20):
            sync.step()
            asyn.run_ticks(1)
            assert sync.contact_graph() == asyn.contact_graph()
        # Not merely the same graphs: the identical random stream.
        assert sync.rng.bit_generator.state == asyn.rng.bit_generator.state
        assert sync.stats.messages_sent == asyn.stats.messages_sent
        assert sync.stats.discoveries == asyn.stats.discoveries

    @pytest.mark.parametrize("protocol,latency", [("pull", 0.25), ("name_dropper", 0.5)])
    def test_other_protocols_replay_too(self, protocol, latency):
        # Pull rounds are three hops deep, so the degenerate latency must
        # fit three deliveries inside one tick.
        sync = NetworkSimulator(
            gen.cycle_graph(12), protocol=protocol, rng=np.random.default_rng(5)
        )
        asyn = AsyncNetworkSimulator(
            gen.cycle_graph(12),
            protocol=protocol,
            rng=np.random.default_rng(5),
            latency=FixedLatency(latency),
        )
        for _ in range(12):
            sync.step()
            asyn.run_ticks(1)
            assert sync.contact_graph() == asyn.contact_graph()
        assert sync.rng.bit_generator.state == asyn.rng.bit_generator.state

    def test_jitter_breaks_round_alignment_but_still_converges(self):
        asyn = AsyncNetworkSimulator(
            gen.cycle_graph(12),
            protocol="push",
            rng=1,
            latency=UniformLatency(0.1, 2.5),
        )
        asyn.run_to_convergence(max_ticks=5_000)
        assert asyn.is_converged()


class TestEventDeterminism:
    def _build(self, seed):
        return AsyncNetworkSimulator(
            gen.cycle_graph(16),
            protocol="pull",
            rng=seed,
            failures=DropUniform(0.15),
            latency=UniformLatency(0.05, 1.4),
            churn=ChurnSchedule.poisson(16, 0.1, 30.0, seed=99, downtime=3.0),
            ping_interval=1.0,
            ping_timeout=2.0,
            record_events=True,
        )

    def test_same_seed_same_event_log(self):
        a, b = self._build(8), self._build(8)
        a.run_ticks(30)
        b.run_ticks(30)
        assert a.event_log == b.event_log
        assert a.contact_graph() == b.contact_graph()

    def test_different_seed_different_event_log(self):
        a, b = self._build(8), self._build(9)
        a.run_ticks(30)
        b.run_ticks(30)
        assert a.event_log != b.event_log


# --------------------------------------------------------------------------- #
# faults: churn, partitions, liveness eviction, locality
# --------------------------------------------------------------------------- #
class TestChurn:
    def test_messages_to_dead_nodes_are_lost(self):
        sim = AsyncNetworkSimulator(
            gen.cycle_graph(10),
            protocol="push",
            rng=2,
            churn=ChurnSchedule([(2.0, "leave", 3)]),
        )
        sim.run_ticks(20)
        assert not sim.is_alive(3)
        assert sim.stats.leaves == 1
        assert sim.stats.messages_lost_dead > 0
        # The dead node's own state froze at departure.
        assert sim.contacts.out_degree(3) < sim.n - 1

    def test_rejoin_resumes_participation(self):
        sim = AsyncNetworkSimulator(
            gen.cycle_graph(10),
            protocol="push",
            rng=2,
            churn=ChurnSchedule([(2.0, "leave", 3), (6.0, "join", 3)]),
        )
        sim.run_to_convergence(max_ticks=2_000)
        assert sim.is_alive(3)
        assert sim.stats.joins == 1
        assert sim.is_converged()  # the returning node catches up

    def test_convergence_is_judged_among_alive_nodes(self):
        sim = AsyncNetworkSimulator(
            gen.cycle_graph(10),
            protocol="push",
            rng=2,
            churn=ChurnSchedule([(1.0, "leave", 0)]),
        )
        sim.run_to_convergence(max_ticks=2_000)
        assert sim.is_converged()
        assert sim.alive_nodes() == list(range(1, 10))

    def test_per_call_tick_budget(self):
        sim = AsyncNetworkSimulator(gen.cycle_graph(30), protocol="push", rng=0)
        sim.run_to_convergence(max_ticks=3)
        assert sim.stats.ticks == 3
        sim.run_to_convergence(max_ticks=3)
        assert sim.stats.ticks == 6
        with pytest.raises(ValueError):
            sim.run_to_convergence(max_ticks=-1)


class TestPartitions:
    def test_partition_isolates_interiors_until_heal(self):
        n = 16
        sim = AsyncNetworkSimulator(
            gen.cycle_graph(n),
            protocol="push",
            rng=4,
            partitions=PartitionSchedule.split_heal(0.0, 25.0, [range(8), range(8, 16)]),
        )
        sim.run_ticks(24)
        assert sim.stats.messages_lost_partition > 0
        # Interior nodes (no cycle edge across the cut) cannot learn
        # interior nodes of the other side while the cut holds; boundary
        # IDs may travel via same-side introducers, which is fine.
        interiors_a, interiors_b = range(2, 6), range(10, 14)
        for u in interiors_a:
            for v in interiors_b:
                assert not sim.contacts.has_edge(u, v)
                assert not sim.contacts.has_edge(v, u)

    def test_discovery_completes_after_heal(self):
        sim = AsyncNetworkSimulator(
            gen.cycle_graph(12),
            protocol="push",
            rng=4,
            partitions=PartitionSchedule.split_heal(0.0, 10.0, [range(6), range(6, 12)]),
        )
        sim.run_to_convergence(max_ticks=5_000)
        assert sim.is_converged()


class TestLivenessEviction:
    def test_dead_contact_is_evicted_after_consecutive_misses(self):
        # Two nodes: 1 dies, 0 pings it every tick and must evict it after
        # ping_misses unanswered probes.
        sim = AsyncNetworkSimulator(
            gen.path_graph(2),
            protocol="push",
            rng=0,
            churn=ChurnSchedule([(1.5, "leave", 1)]),
            ping_interval=1.0,
            ping_timeout=1.5,
            ping_misses=3,
        )
        sim.run_ticks(12)
        assert not sim.contacts.has_edge(0, 1)
        assert sim.stats.evictions == 1
        assert sim.stats.pings_sent > 0

    def test_alive_contacts_survive_reliable_pings(self):
        sim = AsyncNetworkSimulator(
            gen.cycle_graph(8),
            protocol="push",
            rng=1,
            ping_interval=1.0,
            ping_timeout=1.5,
        )
        sim.run_ticks(30)
        assert sim.stats.evictions == 0
        assert sim.stats.pongs_received > 0

    def test_single_miss_does_not_evict_under_loss(self):
        # 30% loss with a 4-miss threshold: false evictions should be
        # rare; the protocol keeps converging.
        sim = AsyncNetworkSimulator(
            gen.cycle_graph(10),
            protocol="push",
            rng=6,
            failures=DropUniform(0.3),
            ping_interval=1.0,
            ping_timeout=1.5,
            ping_misses=4,
        )
        sim.run_to_convergence(max_ticks=3_000)
        assert sim.is_converged()

    def test_ping_validation(self):
        with pytest.raises(ValueError):
            AsyncNetworkSimulator(gen.cycle_graph(4), ping_interval=0.0)
        with pytest.raises(ValueError):
            AsyncNetworkSimulator(gen.cycle_graph(4), ping_interval=1.0, ping_misses=0)


class TestAsyncLocality:
    def test_non_local_send_rejected(self):
        sim = AsyncNetworkSimulator(gen.path_graph(6), protocol="push", rng=0)
        with pytest.raises(LocalityError):
            sim.send(Message(MessageKind.INTRODUCE, 0, 5, (3,)))
        assert sim.stats.messages_sent == 0

    def test_heard_of_extends_locality(self):
        # After 1 introduces 3 to 0, node 0 may address 3 directly.
        sim = AsyncNetworkSimulator(
            gen.path_graph(6), protocol="push", rng=0, latency=FixedLatency(0.1)
        )
        sim.send(Message(MessageKind.INTRODUCE, 1, 0, (3,)))
        sim.run_ticks(1)
        assert sim.send(Message(MessageKind.INTRODUCE, 0, 3, (1,))) is True

    def test_ping_ids_do_not_widen_locality(self):
        # A PING or PONG payload is a ping counter, not a node ID.  Node 8
        # handles pings and pongs whose counters include 6, but never gets
        # a message from node 6 or one naming it, so it may not address 6.
        sim = AsyncNetworkSimulator(
            gen.path_graph(40),
            protocol="push",
            rng=0,
            churn=ChurnSchedule([(0.5, "leave", 0)]),
            ping_interval=1.0,
            ping_timeout=2.0,
        )
        sim.run_ticks(2)
        assert not sim.contacts.has_edge(8, 6)
        with pytest.raises(LocalityError):
            sim.send(Message(MessageKind.INTRODUCE, 8, 6, (7,)))

    def test_faulty_protocol_runs_never_violate_locality(self):
        for protocol in ("push", "pull", "name_dropper"):
            sim = AsyncNetworkSimulator(
                gen.cycle_graph(12),
                protocol=protocol,
                rng=3,
                failures=DropUniform(0.3),
                latency=UniformLatency(0.05, 1.8),
                churn=ChurnSchedule.poisson(12, 0.1, 20.0, seed=5, downtime=3.0),
                ping_interval=1.0,
            )
            sim.run_ticks(25)


class TestAsyncMisc:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(KeyError):
            AsyncNetworkSimulator(gen.cycle_graph(6), protocol="bogus")

    def test_requires_undirected_graph(self):
        from repro.graphs.adjacency import DynamicDiGraph

        with pytest.raises(TypeError):
            AsyncNetworkSimulator(DynamicDiGraph(3, [(0, 1)]))

    def test_validation(self):
        with pytest.raises(ValueError):
            AsyncNetworkSimulator(gen.cycle_graph(4), tick_interval=0.0)
        with pytest.raises(ValueError):
            AsyncNetworkSimulator(
                gen.cycle_graph(4), churn=ChurnSchedule([(1.0, "leave", 9)])
            )
        sim = AsyncNetworkSimulator(gen.cycle_graph(4))
        with pytest.raises(ValueError):
            sim.run_ticks(-1)

    def test_knowledge_graph_tracks_discoveries(self):
        sim = AsyncNetworkSimulator(gen.cycle_graph(10), protocol="push", rng=1)
        sim.run_to_convergence(max_ticks=2_000)
        assert sim.contact_graph() == sim.knowledge_graph

    def test_repr(self):
        sim = AsyncNetworkSimulator(gen.cycle_graph(5), protocol="pull", rng=0)
        assert "pull" in repr(sim)
        sim.run_ticks(2)
        assert "ticks=2" in repr(sim)
