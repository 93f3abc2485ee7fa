"""Deterministic neighbourhood flooding — the round-optimal, bandwidth-hungry extreme.

Each round every node sends its *entire* known set to *all* of its current
neighbours, and everybody merges everything they receive.  Knowledge
squares the reachable radius every round, so the process completes in
⌈log₂ diameter⌉ + O(1) rounds — the fewest rounds any local algorithm can
hope for — but the per-round traffic is Θ(n · m) IDs.  It anchors the
"rounds vs bits" trade-off plot of experiment E10.

A round is **one pass of row unions** on the word-packed membership
rows: node ``v``'s new row is the OR of its active neighbours'
round-start rows.  The deliveries are built destination-major, straight
from the rows: an undirected row lists exactly the neighbours that send
to its node, so ``v``'s run of deliveries is its own row, and
:func:`repro.graphs.bitset.rows_or_into` folds each run with one
``reduceat`` without sorting anything.  The genuinely new edges are the
bits the union set, and degree sums feed ``messages_sent``/``bits_sent``.
Flooding draws no randomness; the round adds the edge set a per-node
payload loop would add, but discovers it in canonical rather than scan
order and does not materialise the Θ(n · m) ``proposed_edges`` list (its
``added_edges`` and accounting are exact).

The round works in bounded memory.  The deliveries are ORed in one
chunk of recipients at a time (:func:`~repro.baselines._packed.payload_chunks`),
and the new edges are extracted and inserted one block of rows at a
time, in row-major order (:func:`repro.graphs.bitset.bit_pairs`), so no
temporary holds more than :data:`~repro.graphs.array_adjacency.CHUNK`
entries beyond the one copy of the membership rows the union needs.

Flooding is deterministic and purely synchronous: the round is computed
against the round-start snapshot regardless of the ``semantics`` setting
(matching the historical behaviour of this module).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.baselines._packed import (
    concat_rows,
    packed_rows,
    payload_chunks,
    require_undirected,
)
from repro.core.base import DiscoveryProcess, RoundResult, UpdateSemantics, node_array
from repro.graphs import array_adjacency, bitset
from repro.graphs.array_adjacency import ROW_DTYPE, EdgeArrays

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
        self._packed_round(result, active)
        self.round_index += 1
        self.total_edges_added += result.num_added
        self.total_messages += result.messages_sent
        self.total_bits += result.bits_sent
        return result

    def _packed_round(self, result: RoundResult, active: np.ndarray) -> None:
        """One pass of row unions on the packed membership rows.

        Each participating sender ``u`` delivers its round-start row to
        every neighbour ``v``; a sender's own ID bit is already present in
        the recipient's row, so the neighbour-row union *is* the whole
        merge.  :func:`_row_union` forms it destination-major, and the new
        edges are the bits the union added.  New bits always arrive in
        symmetric pairs (both endpoints of a new edge are recipients of
        the same sender), so reading the upper triangle, one block of rows
        at a time, finds every new edge once.
        """
        graph = self.graph
        n = graph.n
        rows, deg, bits = packed_rows(graph)
        counts = deg[active]
        # Each active node sends its (deg+1)-ID knowledge set to every neighbour.
        result.messages_sent = int(counts.sum())
        result.bits_sent = int((counts * (counts + 1)).sum()) * self._id_bits
        if result.messages_sent == 0:
            return
        fresh = _row_union(rows, deg, bits, active)
        fresh &= ~bits
        nodes = np.arange(n, dtype=np.int64)
        bitset.clear_bits(fresh, nodes, nodes)  # no self-knowledge edges
        # Every fresh bit is half of a new edge: collect the blocks' inserts
        # into arrays of the final size rather than concatenating them.
        us = np.empty(bitset.count_total(fresh) // 2, dtype=ROW_DTYPE)
        vs = np.empty_like(us)
        filled = 0
        step = max(1, array_adjacency.CHUNK // n)
        for start in range(0, n, step):
            block = graph.add_edges_batch_arrays(
                *bitset.bit_pairs(fresh[start : start + step], n, start, upper=True)
            )
            us[filled : filled + len(block)] = block.us
            vs[filled : filled + len(block)] = block.vs
            filled += len(block)
        result.added_edges = EdgeArrays(us, vs)

    def is_converged(self) -> bool:
        """Flooding also converges to the complete graph."""
        return self.graph.is_complete()

    def default_round_cap(self) -> int:
        """Flooding needs only O(log n) rounds; cap generously above that."""
        n = max(self.graph.n, 2)
        return int(20 * (np.log2(n) + 1)) + 20


def _row_union(
    rows: np.ndarray, deg: np.ndarray, bits: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """The membership rows ``bits`` with every row ORed with its active neighbours' rows.

    Destination-major: node ``v`` hears from the active nodes in its own
    row, because an undirected row lists exactly the neighbours that
    send to ``v``.  Every node with a row receives, active or not, and
    the deliveries come in node order, so their destinations are
    non-decreasing as :func:`bitset.rows_or_into` requires.  They are
    expanded one :func:`payload_chunks` run of recipients at a time; a
    function of its own, so the last run's arrays are freed before the
    round inserts its new edges.
    """
    fresh = bits.copy()
    sends = np.zeros(deg.shape[0], dtype=bool)
    sends[active] = True
    everyone = bool(sends.all())
    recipients = np.flatnonzero(deg)
    for part in payload_chunks(deg[recipients]):
        dst = recipients[part]
        counts = deg[dst]
        src = concat_rows(rows, dst, counts)
        dst = np.repeat(dst, counts)
        if not everyone:
            heard = sends[src]
            src, dst = src[heard], dst[heard]
        bitset.rows_or_into(fresh, dst, bits, src)
    return fresh
