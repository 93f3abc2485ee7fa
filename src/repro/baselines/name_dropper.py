"""The Name Dropper algorithm of Harchol-Balter, Leighton and Lewin (PODC 1999).

As described in the paper's introduction: "in each round, each node chooses
a random neighbor and sends all the IP addresses it knows".  The receiver
merges the sender's whole neighbour set into its own.  Name Dropper
converges in O(log² n) rounds but each message carries up to Θ(n) node IDs
— exactly the bandwidth cost the gossip processes avoid.

The process has the same round/metric interface as the gossip processes,
so the baselines plug into the identical experiment harness
(``make_process``/``ExperimentSpec``/CLI).  A synchronous round is packed:
targets come from one bulk draw, and each message's *teach row* — the
sender's packed row minus the recipient's row and the recipient — says
which of the IDs it carries are new to the recipient
(:func:`~repro.baselines._packed.insert_taught_edges`).  Only messages
that teach something are expanded, a chunk of messages at a time, only
the IDs they teach reach the graph's batched edge insert, and degree sums
feed the ``messages_sent``/``bits_sent`` accounting.  ``proposed_edges``
still lists every carried ID; it is rebuilt from the rows on first
access.

Trace contract: synchronous rounds draw one bulk ``rng.random(m)`` over
the ``m`` participating nodes (the draw convention of
:mod:`repro.graphs.sampling`), and sequential rounds draw exactly one
``rng.integers`` per active node.  The synchronous round adds the edges a
per-node payload loop would add, in the same order
(``tests/test_backend_equivalence.py`` checks it against that loop;
goldens under ``tests/data/``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.baselines._packed import (
    PayloadProposals,
    insert_taught_edges,
    packed_rows,
    require_undirected,
)
from repro.core.base import (
    DiscoveryProcess,
    RoundResult,
    UpdateSemantics,
    node_array,
)

__all__ = ["NameDropper"]


class NameDropper(DiscoveryProcess):
    """Name Dropper: push your entire known set to one random neighbour per round.

    Knowledge is represented directly by the evolving graph: node ``u``
    "knows" exactly its current neighbours (plus itself).  When ``u``
    name-drops to ``v``, edges ``(v, w)`` are added for every ``w`` known to
    ``u`` (including ``(v, u)`` itself, which is already present).
    """

    MESSAGES_PER_NODE = 1

    def __init__(
        self,
        graph,
        rng: Union[np.random.Generator, int, None] = None,
        semantics: UpdateSemantics = UpdateSemantics.SYNCHRONOUS,
    ) -> None:
        require_undirected(graph, "NameDropper")
        super().__init__(graph, rng, semantics)

    # The base-class single-edge propose/step machinery is replaced because a
    # Name Dropper round transfers a whole set; we override step() directly.
    def propose(self, node: int) -> Optional[Tuple[int, int]]:  # pragma: no cover - unused
        raise NotImplementedError("NameDropper overrides step() and never calls propose()")

    def step(self) -> RoundResult:
        """One Name Dropper round under the configured update semantics."""
        result = RoundResult(round_index=self.round_index)
        active = node_array(self.participating_nodes())
        if self.semantics is UpdateSemantics.SEQUENTIAL:
            self._sequential_round(result, active)
        else:
            self._packed_round(result, active)
        self.round_index += 1
        self.total_edges_added += result.num_added
        self.total_messages += result.messages_sent
        self.total_bits += result.bits_sent
        return result

    def _sequential_round(self, result: RoundResult, active: np.ndarray) -> None:
        """Sequential ablation: participating nodes act in order on the evolving graph.

        Each active node draws exactly one ``rng.integers`` for its target
        — the stream the trace contract pins.  (An earlier version
        pre-sampled a discarded synchronous pass first, consuming two draws
        per node; fixing that legitimately changed the sequential stream
        and the goldens were regenerated.)
        """
        for u in active.tolist():
            nbrs = self.graph.neighbors(u)
            if len(nbrs) == 0:
                continue
            v = self.graph.random_neighbor(u, self.rng)
            payload = list(nbrs) + [u]
            self._apply_action(u, v, payload, result)

    def _packed_round(self, result: RoundResult, active: np.ndarray) -> None:
        """Synchronous packed round: expand only what is taught.

        One uniform per participating node picks its target.  Sender
        ``s`` sends its round-start row plus itself to its target; the
        recipient already has ``s`` in its row, so only the row can teach
        it anything.  :func:`insert_taught_edges` inserts exactly the IDs
        the recipient lacks, in payload order, so the new edges take the
        first-occurrence edge order of a per-node payload loop, and
        neighbour rows, and hence future draws, match that loop's.
        ``proposed_edges`` lists every carried ID but ``(v, v)``, built on
        first access.
        """
        graph = self.graph
        targets = graph.random_neighbors(active, self.rng)
        valid = targets >= 0
        senders = active[valid]
        result.messages_sent = int(senders.size)
        counts = packed_rows(graph)[1][senders]
        result.bits_sent = int((counts + 1).sum()) * self._id_bits
        if senders.size == 0:
            return
        recipients = targets[valid]
        result.attach_batch(PayloadProposals(graph, recipients, senders, counts, with_self=True))
        added = insert_taught_edges(graph, recipients, senders, counts)
        result.added_edges = added

    def _apply_action(self, u: int, v: int, payload: List[int], result: RoundResult) -> None:
        result.messages_sent += 1
        result.bits_sent += len(payload) * self._id_bits
        for w in payload:
            if w == v:
                continue
            result.proposed_edges.append((v, w))
            if self.graph.add_edge(v, w):
                result.added_edges.append((v, w))

    def is_converged(self) -> bool:
        """Name Dropper also converges to the complete graph."""
        return self.graph.is_complete()

    def default_round_cap(self) -> int:
        """Name Dropper needs only O(log² n) rounds; cap generously above that."""
        n = max(self.graph.n, 2)
        log_n = float(np.log2(n)) + 1.0
        return int(100 * log_n * log_n) + 50
