"""The Name Dropper algorithm of Harchol-Balter, Leighton and Lewin (PODC 1999).

As described in the paper's introduction: "in each round, each node chooses
a random neighbor and sends all the IP addresses it knows".  The receiver
merges the sender's whole neighbour set into its own.  Name Dropper
converges in O(log² n) rounds but each message carries up to Θ(n) node IDs
— exactly the bandwidth cost the gossip processes avoid.

The implementation is backend-agnostic with the same round/metric
interface as the gossip processes, so the baselines plug into the
identical experiment harness (``make_process``/``ExperimentSpec``/CLI
``--backend``):

* **list backend** — the per-node reference loop: one payload list per
  sender, one ``add_edge`` per delivered ID;
* **array backend** — the packed round: targets come from one bulk draw,
  and each message's *teach row* — the sender's packed row minus the
  recipient's row and the recipient — says which of the IDs it carries
  are new to the recipient (:func:`~repro.baselines._packed.taught_edges`).
  Only messages that teach something are expanded, only the IDs they
  teach reach the graph's batched edge insert, and degree sums feed the
  ``messages_sent``/``bits_sent`` accounting.  ``proposed_edges`` still
  lists every carried ID; it is rebuilt from the rows on first access.

Trace contract: synchronous rounds draw one bulk ``rng.random(n)`` per
round (the shared backend draw convention of
:mod:`repro.graphs.sampling`), and sequential rounds draw exactly one
``rng.integers`` per active node; both backends therefore produce
identical seeded traces (``tests/test_backend_equivalence.py``, goldens
under ``tests/data/``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.baselines._packed import (
    PayloadProposals,
    packed_rows,
    require_undirected,
    taught_edges,
)
from repro.core.base import (
    DiscoveryProcess,
    RoundResult,
    UpdateSemantics,
    node_array,
)
from repro.graphs.array_adjacency import as_backend

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
        backend: Optional[str] = None,
    ) -> None:
        if backend is not None:
            graph = as_backend(graph, backend)
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
            packed = packed_rows(self.graph)
            if packed is not None:
                self._packed_round(result, active, *packed)
            else:
                self._reference_round(result, active)
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
        self._note_added_edges(result.added_edges)

    def _reference_round(self, result: RoundResult, active: np.ndarray) -> None:
        """Synchronous reference round: per-node payload loop, bulk target draw.

        One uniform per *participating* node — the packed round consumes the
        identical stream, so subset schedules stay trace-equivalent across
        backends.
        """
        graph = self.graph
        targets = graph.random_neighbors(active, self.rng)
        # Snapshot every payload against the round-start graph first.
        actions: List[Tuple[int, int, List[int]]] = []
        for k, u in enumerate(active.tolist()):
            v = int(targets[k])
            if v < 0:
                continue
            actions.append((u, v, list(graph.neighbors(u)) + [u]))
        for u, v, payload in actions:
            self._apply_action(u, v, payload, result)
        self._note_added_edges(result.added_edges)

    def _packed_round(
        self,
        result: RoundResult,
        active: np.ndarray,
        rows: np.ndarray,
        deg: np.ndarray,
        bits: np.ndarray,
    ) -> None:
        """Synchronous packed round on the array backend: expand only what is taught.

        Same bulk target draw as the reference round.  Sender ``s`` sends
        its round-start row plus itself to its target; the recipient
        already has ``s`` in its row, so only the row can teach it
        anything.  :func:`taught_edges` keeps exactly the IDs the
        recipient lacks, in payload order, and the batched insert adds
        them in the reference path's first-occurrence edge order (so
        neighbour rows, and hence future draws, stay aligned across
        backends).  ``proposed_edges`` lists every carried ID but
        ``(v, v)``, as the reference round does, built on first access.
        """
        graph = self.graph
        targets = graph.random_neighbors(active, self.rng)
        valid = targets >= 0
        senders = active[valid]
        result.messages_sent = int(senders.size)
        counts = deg[senders]
        result.bits_sent = int((counts + 1).sum()) * self._id_bits
        if senders.size == 0:
            return
        recipients = targets[valid]
        result.attach_batch(PayloadProposals(graph, recipients, senders, counts, with_self=True))
        added = graph.add_edges_batch_arrays(*taught_edges(rows, bits, recipients, senders, counts))
        result.added_edges = added
        self._note_added_edges(added)

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
