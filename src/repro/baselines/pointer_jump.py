"""The Random Pointer Jump algorithm (referenced in the paper's §5).

"Each node gets to know all the neighbors of a random neighbor in each
step": node ``u`` picks a uniformly random (out-)neighbour ``v`` and copies
``v``'s entire (out-)neighbour list into its own.  Like Name Dropper the
messages are Θ(n) IDs in the worst case, and on directed graphs the
Harchol-Balter et al. example gives it an Ω(n) round lower bound.

We provide both the directed form (the one discussed in the paper, used
as a baseline for the directed two-hop walk experiments) and an undirected
form for the undirected comparison sweep.  Both forms are
backend-agnostic: the list backend runs the per-node reference loop; the
array backend builds each pull's *teach row* — the chosen neighbour's
packed (out-)row minus the puller's row and the puller — and expands only
the pulled payloads that teach something, keeping only the IDs they
teach (:func:`~repro.baselines._packed.taught_edges`), before one
batched insert.  Degree sums feed the ``messages_sent``/``bits_sent``
accounting, and ``proposed_edges`` is rebuilt from the rows on first
access.

Trace contract: synchronous rounds draw one bulk ``rng.random(n)`` per
round (the shared backend draw convention), sequential rounds one
``rng.integers`` per active node; payloads are snapshotted against the
round-start graph, so seeded traces are identical across backends.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.baselines._packed import PayloadProposals, packed_rows, taught_edges
from repro.core.base import (
    DiscoveryProcess,
    RoundResult,
    UpdateSemantics,
    node_array,
)
from repro.graphs.array_adjacency import as_backend
from repro.graphs.closure import transitive_closure_edges

__all__ = ["RandomPointerJump"]


class RandomPointerJump(DiscoveryProcess):
    """Random Pointer Jump on an undirected or directed graph.

    * Undirected graph: ``u`` learns (connects to) every current neighbour
      of a random neighbour ``v``; converges to the complete graph.
    * Directed graph: ``u`` adds out-edges to all out-neighbours of a random
      out-neighbour ``v``; converges to the transitive closure of ``G_0``.
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
        super().__init__(graph, rng, semantics)
        # Flag-based so the array-backend graphs classify correctly too.
        self._directed = bool(getattr(graph, "directed", False))
        if self._directed:
            closure = transitive_closure_edges(graph)
            self._missing = {e for e in closure if not graph.has_edge(*e)}
        else:
            self._missing = None

    def propose(self, node: int) -> Optional[Tuple[int, int]]:  # pragma: no cover - unused
        raise NotImplementedError("RandomPointerJump overrides step() and never calls propose()")

    def _neighbors(self, u: int) -> List[int]:
        if self._directed:
            return list(self.graph.out_neighbors(u))
        return list(self.graph.neighbors(u))

    def _bulk_targets(self, nodes: np.ndarray) -> np.ndarray:
        """One bulk uniform (out-)neighbour draw for the whole round."""
        if self._directed:
            return self.graph.random_out_neighbors(nodes, self.rng)
        return self.graph.random_neighbors(nodes, self.rng)

    def step(self) -> RoundResult:
        """One Random Pointer Jump round under the configured update semantics."""
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

    def _scalar_target(self, u: int) -> Optional[int]:
        """One ``rng.integers`` draw for the sequential per-node path."""
        nbrs = self._neighbors(u)
        if not nbrs:
            return None
        return nbrs[int(self.rng.integers(len(nbrs)))]

    def _sequential_round(self, result: RoundResult, active: np.ndarray) -> None:
        """Sequential ablation: participating nodes act in order on the evolving graph."""
        for u in active.tolist():
            v = self._scalar_target(u)
            if v is None:
                continue
            self._apply_action(u, self._neighbors(v), result)
        self._note_added_edges(result.added_edges)

    def _reference_round(self, result: RoundResult, active: np.ndarray) -> None:
        """Synchronous reference round: snapshot payloads, then apply in node order.

        One uniform per *participating* node, matching the packed round's
        draw stream for any activation schedule.
        """
        graph = self.graph
        targets = self._bulk_targets(active)
        actions: List[Tuple[int, List[int]]] = []
        for k, u in enumerate(active.tolist()):
            v = int(targets[k])
            if v < 0:
                continue
            actions.append((u, self._neighbors(v)))
        for u, payload in actions:
            self._apply_action(u, payload, result)
        self._note_added_edges(result.added_edges)

    def _packed_round(
        self,
        result: RoundResult,
        active: np.ndarray,
        rows: np.ndarray,
        deg: np.ndarray,
        bits: np.ndarray,
    ) -> None:
        """Synchronous packed round: expand only the pulled IDs that are new.

        Puller ``u`` pulls its chosen neighbour's round-start row;
        :func:`taught_edges` keeps the IDs ``u`` lacks, in
        participating-node and row order, so the batched insert
        reproduces the reference path's first-occurrence edge order
        exactly and neighbour rows stay aligned across backends.
        ``proposed_edges`` lists every pulled ID but ``(u, u)``, built on
        first access.
        """
        graph = self.graph
        targets = self._bulk_targets(active)
        valid = targets >= 0
        pullers = active[valid]
        result.messages_sent = 2 * int(pullers.size)  # request + bulk reply each
        chosen = targets[valid]
        counts = deg[chosen]
        result.bits_sent = int((1 + counts).sum()) * self._id_bits
        if pullers.size == 0:
            return
        result.attach_batch(PayloadProposals(graph, pullers, chosen, counts, with_self=False))
        added = graph.add_edges_batch_arrays(*taught_edges(rows, bits, pullers, chosen, counts))
        result.added_edges = added
        self._absorb_added(added)
        self._note_added_edges(added)

    def _absorb_added(self, added: List[Tuple[int, int]]) -> None:
        """Keep the directed closure-deficit set current for a batch of new edges.

        Called by the packed round with the edges it has just inserted.
        """
        if self._missing is not None and added:
            self._missing.difference_update(added)

    def _apply_action(self, u: int, payload: List[int], result: RoundResult) -> None:
        result.messages_sent += 2  # request + bulk reply
        result.bits_sent += (1 + len(payload)) * self._id_bits
        for w in payload:
            if w == u:
                continue
            result.proposed_edges.append((u, w))
            added = self.graph.add_edge(u, w)
            if added:
                result.added_edges.append((u, w))
                if self._missing is not None:
                    self._missing.discard((u, w))

    def is_converged(self) -> bool:
        """Complete graph (undirected) or transitive closure (directed)."""
        if self._directed:
            return not self._missing
        return self.graph.is_complete()

    def default_round_cap(self) -> int:
        """Pointer jump is Ω(n) on bad directed instances; cap at a large multiple of n log n."""
        n = max(self.graph.n, 2)
        log_n = float(np.log2(n)) + 1.0
        return int(40 * n * log_n) + 100
