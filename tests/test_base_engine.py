"""Unit tests for the round engine shared by all processes."""

import pytest

from repro.core.base import DiscoveryProcess, RoundResult, UpdateSemantics, id_bits
from repro.core.push import PushDiscovery
from repro.graphs import generators as gen


class TestUpdateSemantics:
    def test_enum_values(self):
        assert UpdateSemantics("synchronous") is UpdateSemantics.SYNCHRONOUS
        assert UpdateSemantics("sequential") is UpdateSemantics.SEQUENTIAL
        with pytest.raises(ValueError):
            UpdateSemantics("other")

    def test_synchronous_proposals_use_round_start_graph(self):
        # With synchronous semantics, a round's proposals can only involve
        # edges of the round-start graph; the paw's pendant node 0 can only
        # be introduced through node 1 in round 0, so no proposal of round 0
        # may connect 0 to both 2 and 3 simultaneously... we check the
        # weaker, directly observable contract: every proposed edge joins
        # two round-start neighbours of some node.
        g = gen.fig1c_nonmonotone()
        start_edges = set(g.edge_list())
        proc = PushDiscovery(g, rng=0)
        result = proc.step()
        for v, w in result.proposed_edges:
            # both endpoints were adjacent to a common node in the start graph
            common = [
                u
                for u in range(4)
                if (min(u, v), max(u, v)) in start_edges and (min(u, w), max(u, w)) in start_edges
            ]
            assert common


class TestRunLoop:
    def test_round_result_fields(self):
        g = gen.cycle_graph(8)
        proc = PushDiscovery(g, rng=0)
        result = proc.step()
        assert isinstance(result, RoundResult)
        assert result.round_index == 0
        assert result.num_added == len(result.added_edges)
        assert proc.round_index == 1

    def test_run_with_history(self):
        g = gen.cycle_graph(8)
        proc = PushDiscovery(g, rng=0)
        result = proc.run(10, record_history=True)
        assert result.history is not None
        assert len(result.history) == result.rounds
        # totals are consistent with the per-round history
        assert result.total_edges_added == sum(r.num_added for r in result.history)

    def test_run_without_history(self):
        g = gen.cycle_graph(8)
        result = PushDiscovery(g, rng=0).run(5)
        assert result.history is None

    def test_until_predicate_stops_early(self):
        g = gen.cycle_graph(16)
        proc = PushDiscovery(g, rng=0)
        result = proc.run(10_000, until=lambda p: p.graph.number_of_edges() >= 20)
        assert g.number_of_edges() >= 20
        assert result.rounds < 10_000

    def test_until_true_at_start_runs_zero_rounds(self):
        g = gen.cycle_graph(8)
        proc = PushDiscovery(g, rng=0)
        result = proc.run(100, until=lambda p: True)
        assert result.rounds == 0
        assert result.converged

    def test_callbacks_called_every_round(self):
        g = gen.cycle_graph(8)
        proc = PushDiscovery(g, rng=0)
        calls = []
        proc.run(7, callbacks=[lambda p, r: calls.append(r.round_index)])
        assert calls == list(range(7))

    def test_totals_accumulate_across_runs(self):
        g = gen.cycle_graph(10)
        proc = PushDiscovery(g, rng=0)
        proc.run(5)
        mid_messages = proc.total_messages
        proc.run(5)
        assert proc.total_messages > mid_messages
        assert proc.round_index == 10 or proc.is_converged()

    def test_default_round_cap_scales_superlinearly(self):
        small = PushDiscovery(gen.cycle_graph(8), rng=0).default_round_cap()
        large = PushDiscovery(gen.cycle_graph(64), rng=0).default_round_cap()
        assert large > 8 * small / 2  # grows faster than linearly in n

    def test_repr_mentions_class_and_round(self):
        proc = PushDiscovery(gen.cycle_graph(6), rng=0)
        assert "PushDiscovery" in repr(proc)


class TestAbstractInterface:
    def test_cannot_instantiate_abstract_process(self):
        with pytest.raises(TypeError):
            DiscoveryProcess(gen.cycle_graph(4), rng=0)  # type: ignore[abstract]


class TestIdBits:
    """Pin the single-authority bit formula: max(1, ceil(log2 n))."""

    @pytest.mark.parametrize(
        "n,expected",
        [
            (1, 1),  # degenerate: a lone node still pays one bit per ID
            (2, 1),
            (3, 2),  # non-power of two rounds up
            (5, 3),
            (12, 4),
            (96, 7),
            (1024, 10),
            (1025, 11),  # just past a power of two
        ],
    )
    def test_formula_pinned(self, n, expected):
        assert id_bits(n) == expected

    def test_engine_and_network_share_the_formula(self):
        from repro.network.message import id_bits_for

        for n in (1, 2, 3, 12, 97, 1025):
            assert id_bits_for(n) == id_bits(n)

    def test_round_bits_use_shared_formula(self):
        n = 12  # not a power of two
        proc = PushDiscovery(gen.cycle_graph(n), rng=0)
        result = proc.step()
        assert result.bits_sent == result.messages_sent * id_bits(n)
