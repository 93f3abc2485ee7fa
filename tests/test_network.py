"""Unit tests for the message-passing substrate (messages, protocols, lock-step simulator)."""

import numpy as np
import pytest

from repro.core.push import PushDiscovery
from repro.network import (
    DropUniform,
    FailureModel,
    LocalityError,
    Message,
    MessageKind,
    NetworkSimulator,
    NoFailures,
    id_bits_for,
)
from repro.graphs import generators as gen


class DropKind(FailureModel):
    """Test helper: drop every message of one kind, deliver the rest."""

    def __init__(self, kind: MessageKind) -> None:
        self.kind = kind

    def delivered(self, message: Message, rng: np.random.Generator) -> bool:
        return message.kind is not self.kind


class TestMessage:
    def test_id_bits(self):
        assert id_bits_for(2) == 1
        assert id_bits_for(16) == 4
        assert id_bits_for(17) == 5
        assert id_bits_for(1) == 1

    def test_bits_accounting(self):
        msg = Message(MessageKind.INTRODUCE, 0, 1, (2,))
        assert msg.bits(16) == 4
        bulk = Message(MessageKind.KNOWLEDGE, 0, 1, tuple(range(10)))
        assert bulk.bits(16) == 40
        req = Message(MessageKind.PULL_REQUEST, 0, 1, ())
        assert req.bits(16) == 4  # empty payload still costs one ID


class TestFailureModels:
    def test_no_failures_always_delivers(self, rng):
        model = NoFailures()
        msg = Message(MessageKind.INTRODUCE, 0, 1, (2,))
        assert all(model.delivered(msg, rng) for _ in range(20))

    def test_drop_uniform_rate(self, rng):
        model = DropUniform(0.5)
        msg = Message(MessageKind.INTRODUCE, 0, 1, (2,))
        delivered = sum(model.delivered(msg, rng) for _ in range(2000))
        assert 850 < delivered < 1150
        with pytest.raises(ValueError):
            DropUniform(1.0)


class TestSimulator:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(KeyError):
            NetworkSimulator(gen.cycle_graph(6), protocol="bogus")

    def test_requires_undirected_graph(self):
        from repro.graphs.array_adjacency import ArrayDiGraph

        with pytest.raises(TypeError):
            NetworkSimulator(ArrayDiGraph(3, [(0, 1)]))

    @pytest.mark.parametrize("protocol", ["push", "pull", "name_dropper"])
    def test_protocols_converge_to_full_discovery(self, protocol):
        sim = NetworkSimulator(gen.cycle_graph(10), protocol=protocol, rng=3)
        stats = sim.run_to_convergence(max_rounds=20_000)
        assert sim.is_converged()
        assert stats.rounds > 0
        assert stats.messages_delivered == stats.messages_sent  # no failures by default

    def test_contact_graph_matches_knowledge_graph(self):
        sim = NetworkSimulator(gen.cycle_graph(8), protocol="push", rng=1)
        for _ in range(20):
            sim.step()
        assert sim.contact_graph() == sim.knowledge_graph

    def test_contacts_stay_symmetric_under_push_and_pull(self):
        for protocol in ("push", "pull"):
            sim = NetworkSimulator(gen.path_graph(8), protocol=protocol, rng=2)
            for _ in range(30):
                sim.step()
            for u, c in sim.contacts.edge_list():
                assert sim.contacts.has_edge(c, u)

    def test_push_protocol_matches_graph_process_exactly(self):
        """Same seed + same start graph -> identical evolution, round for round."""
        start = gen.cycle_graph(9)
        sim = NetworkSimulator(start.copy(), protocol="push", rng=np.random.default_rng(11))
        proc_graph = start.copy()
        proc = PushDiscovery(proc_graph, rng=np.random.default_rng(11))
        for _ in range(25):
            sim.step()
            proc.step()
            assert sim.contact_graph() == proc_graph

    def test_message_failures_are_counted(self):
        sim = NetworkSimulator(
            gen.cycle_graph(10), protocol="push", rng=4, failures=DropUniform(0.5)
        )
        for _ in range(10):
            sim.step()
        assert sim.stats.messages_dropped > 0
        assert (
            sim.stats.messages_delivered + sim.stats.messages_dropped
            == sim.stats.messages_sent
        )

    def test_push_per_node_bits_stay_logarithmic(self):
        n = 32
        sim = NetworkSimulator(gen.cycle_graph(n), protocol="push", rng=5)
        for _ in range(50):
            sim.step()
        # push: each node sends 2 messages of one ID each per round
        assert sim.max_bits_per_node_round() <= 2 * id_bits_for(n)

    def test_name_dropper_per_node_bits_grow(self):
        n = 32
        sim = NetworkSimulator(gen.cycle_graph(n), protocol="name_dropper", rng=5)
        sim.run_to_convergence(max_rounds=100)
        # once knowledge saturates, a single message carries ~n IDs
        assert sim.max_bits_per_node_round() > 5 * id_bits_for(n)

    def test_run_to_convergence_respects_cap(self):
        sim = NetworkSimulator(gen.cycle_graph(30), protocol="push", rng=0)
        stats = sim.run_to_convergence(max_rounds=3)
        assert stats.rounds == 3
        assert not sim.is_converged()
        with pytest.raises(ValueError):
            sim.run_to_convergence(max_rounds=-1)

    def test_repr(self):
        sim = NetworkSimulator(gen.cycle_graph(5), protocol="pull", rng=0)
        assert "pull" in repr(sim)


class TestPullReplyRetention:
    """Regression: the requester keeps an ID handed by a delivered PULL_REPLY.

    The old implementation recorded the discovery at *both* endpoints only
    when the follow-up CONNECT was delivered, so dropping CONNECTs made
    the requester forget knowledge it had already received.
    """

    def test_requester_records_reply_even_when_connect_dropped(self):
        sim = NetworkSimulator(
            gen.cycle_graph(12),
            protocol="pull",
            rng=7,
            failures=DropKind(MessageKind.CONNECT),
        )
        for _ in range(30):
            sim.step()
        # Replies were delivered, so requesters must have learned new IDs
        # even though every CONNECT was lost (before the fix: zero
        # discoveries, every contact list still the initial one).
        assert sim.stats.discoveries > 0
        assert sim.contacts.out_degrees().max() > 2

    def test_discovered_node_only_learns_via_connect(self):
        """The CONNECT keeps its one job: informing the discovered node."""
        sim = NetworkSimulator(
            gen.cycle_graph(12),
            protocol="pull",
            rng=7,
            failures=DropKind(MessageKind.PULL_REPLY),
        )
        for _ in range(30):
            sim.step()
        # No reply ever arrives, so no requester learns anything and no
        # CONNECT is ever sent: the whole process stalls.
        assert sim.stats.discoveries == 0
        assert (sim.contacts.out_degrees() == 2).all()

    def test_no_failures_trajectory_unchanged_by_fix(self):
        """Under NoFailures the fix is invisible: same per-round evolution."""
        a = NetworkSimulator(gen.cycle_graph(10), protocol="pull", rng=21)
        b = NetworkSimulator(gen.cycle_graph(10), protocol="pull", rng=21)
        for _ in range(15):
            a.step()
            b.step()
            assert a.contact_graph() == b.contact_graph()
        assert a.stats.discoveries == b.stats.discoveries


class TestPerNodeBitAccounting:
    """Regression: max_bits_per_node_round reports the busiest *node*."""

    def test_true_max_differs_from_round_average(self):
        # Star: round 1 of Name Dropper has the centre ship n IDs while
        # every leaf ships 2, so the true per-node max is ~n IDs but the
        # per-node average is ~3.  The old implementation returned the
        # average under the max's name.
        n = 16
        sim = NetworkSimulator(gen.star_graph(n), protocol="name_dropper", rng=0)
        sim.step()
        id_bits = id_bits_for(n)
        assert sim.max_bits_per_node_round() == n * id_bits
        assert sim.max_round_mean_bits_per_node() <= 4 * id_bits
        assert sim.max_bits_per_node_round() > sim.max_round_mean_bits_per_node()

    def test_per_round_max_node_bits_tracked(self):
        sim = NetworkSimulator(gen.cycle_graph(8), protocol="push", rng=1)
        for _ in range(5):
            sim.step()
        assert len(sim.stats.per_round_max_node_bits) == 5
        assert max(sim.stats.per_round_max_node_bits) == sim.max_bits_per_node_round()
        # push: nobody ever sends more than two one-ID messages per round.
        assert sim.max_bits_per_node_round() <= 2 * id_bits_for(8)

    def test_empty_simulation_reports_zero(self):
        sim = NetworkSimulator(gen.cycle_graph(8), protocol="push", rng=1)
        assert sim.max_bits_per_node_round() == 0
        assert sim.max_round_mean_bits_per_node() == 0


class TestPerCallRoundBudget:
    """Regression: run_to_convergence's max_rounds is a per-call budget."""

    def test_two_consecutive_calls_each_get_the_budget(self):
        sim = NetworkSimulator(gen.cycle_graph(30), protocol="push", rng=0)
        sim.run_to_convergence(max_rounds=3)
        assert sim.stats.rounds == 3
        # Before the fix this second call compared against the cumulative
        # stats.rounds and silently ran zero rounds.
        sim.run_to_convergence(max_rounds=3)
        assert sim.stats.rounds == 6
        assert not sim.is_converged()

    def test_budget_still_stops_at_convergence(self):
        sim = NetworkSimulator(gen.cycle_graph(8), protocol="name_dropper", rng=2)
        sim.run_to_convergence(max_rounds=10_000)
        rounds = sim.stats.rounds
        assert sim.is_converged()
        sim.run_to_convergence(max_rounds=10_000)
        assert sim.stats.rounds == rounds  # converged: no further rounds


class TestLocalityEnforcement:
    """The simulator rejects sends to IDs the sender was never handed."""

    def test_non_local_send_rejected(self):
        sim = NetworkSimulator(gen.path_graph(6), protocol="push", rng=0)
        stranger = Message(MessageKind.INTRODUCE, 0, 5, (3,))
        with pytest.raises(LocalityError):
            sim.send(stranger)
        # Nothing was accounted for the rejected message.
        assert sim.stats.messages_sent == 0

    def test_local_send_accepted(self):
        sim = NetworkSimulator(gen.path_graph(6), protocol="push", rng=0)
        assert sim.send(Message(MessageKind.INTRODUCE, 0, 1, (2,))) is True
        assert sim.stats.messages_sent == 1

    def test_protocols_never_violate_locality(self):
        # Every protocol's full message flow stays within the rule — the
        # pull CONNECT (addressed to a node learned this round) included.
        for protocol in ("push", "pull", "name_dropper"):
            sim = NetworkSimulator(
                gen.cycle_graph(12), protocol=protocol, rng=3, failures=DropUniform(0.3)
            )
            for _ in range(40):
                sim.step()
