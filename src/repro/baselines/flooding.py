"""Deterministic neighbourhood flooding — the round-optimal, bandwidth-hungry extreme.

Each round every node sends its *entire* known set to *all* of its current
neighbours, and everybody merges everything they receive.  Knowledge
squares the reachable radius every round, so the process completes in
⌈log₂ diameter⌉ + O(1) rounds — the fewest rounds any local algorithm can
hope for — but the per-round traffic is Θ(n · m) IDs.  It anchors the
"rounds vs bits" trade-off plot of experiment E10.

A round is **one pass of row unions** on the word-packed membership
rows: node ``v``'s new row is the OR of its neighbours' round-start rows
(:func:`repro.graphs.bitset.rows_or_into`, which sorts the deliveries by
recipient and folds each recipient's run with one ``reduceat``), the
genuinely new edges fall out of the popcount delta
(:func:`repro.graphs.bitset.delta_edges`), and degree sums feed
``messages_sent``/``bits_sent``.  Flooding draws no randomness; the round
adds the edge set a per-node payload loop would add, but discovers it in
canonical rather than scan order and does not materialise the Θ(n · m)
``proposed_edges`` list (its ``added_edges`` and accounting are exact).

Flooding is deterministic and purely synchronous: the round is computed
against the round-start snapshot regardless of the ``semantics`` setting
(matching the historical behaviour of this module).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.baselines._packed import concat_rows, packed_rows, require_undirected
from repro.core.base import DiscoveryProcess, RoundResult, UpdateSemantics, node_array
from repro.graphs import bitset

__all__ = ["NeighborhoodFlooding"]


class NeighborhoodFlooding(DiscoveryProcess):
    """Full-neighbourhood flooding on an undirected graph."""

    MESSAGES_PER_NODE = 1  # nominal; real accounting happens in step()

    def __init__(
        self,
        graph,
        rng: Union[np.random.Generator, int, None] = None,
        semantics: UpdateSemantics = UpdateSemantics.SYNCHRONOUS,
    ) -> None:
        require_undirected(graph, "NeighborhoodFlooding")
        super().__init__(graph, rng, semantics)

    def propose(self, node: int) -> Optional[Tuple[int, int]]:  # pragma: no cover - unused
        raise NotImplementedError("NeighborhoodFlooding overrides step() and never calls propose()")

    def step(self) -> RoundResult:
        """One synchronous flooding round restricted to the participating nodes."""
        result = RoundResult(round_index=self.round_index)
        active = node_array(self.participating_nodes())
        self._packed_round(result, active, *packed_rows(self.graph))
        self.round_index += 1
        self.total_edges_added += result.num_added
        self.total_messages += result.messages_sent
        self.total_bits += result.bits_sent
        return result

    def _packed_round(
        self,
        result: RoundResult,
        active: np.ndarray,
        rows: np.ndarray,
        deg: np.ndarray,
        bits: np.ndarray,
    ) -> None:
        """One pass of row unions on the packed membership rows.

        Each participating sender ``u`` delivers its round-start row to
        every neighbour ``v``; a sender's own ID bit is already present in
        the recipient's row, so the neighbour-row union *is* the whole
        merge.  The deliveries are the flattened neighbour block of the
        active senders (one row-OR per delivered message), unioned per
        recipient by :func:`bitset.rows_or_into`, and the new edges are the
        popcount delta between the old and unioned rows.  New bits
        always arrive in symmetric pairs (both endpoints of a new edge are
        recipients of the same sender), so the undirected delta extraction
        is exact.
        """
        graph = self.graph
        n = graph.n
        senders = active[deg[active] > 0]
        counts = deg[senders]
        # Each active node sends its (deg+1)-ID knowledge set to every neighbour.
        result.messages_sent = int(counts.sum())
        result.bits_sent = int((counts * (counts + 1)).sum()) * self._id_bits
        if senders.size == 0:
            return
        recipients = concat_rows(rows, senders, counts)
        merged = bits.copy()
        bitset.rows_or_into(merged, recipients, bits, np.repeat(senders, counts))
        nodes = np.arange(n, dtype=np.int64)
        bitset.clear_bits(merged, nodes, nodes)  # no self-knowledge edges
        us, vs = bitset.delta_edges(bits, merged, n)
        added = graph.add_edges_batch_arrays(us, vs)
        result.added_edges = added
        self._note_added_edges(added)

    def is_converged(self) -> bool:
        """Flooding also converges to the complete graph."""
        return self.graph.is_complete()

    def default_round_cap(self) -> int:
        """Flooding needs only O(log n) rounds; cap generously above that."""
        n = max(self.graph.n, 2)
        return int(20 * (np.log2(n) + 1)) + 20
