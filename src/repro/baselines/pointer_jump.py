"""The Random Pointer Jump algorithm (referenced in the paper's §5).

"Each node gets to know all the neighbors of a random neighbor in each
step": node ``u`` picks a uniformly random (out-)neighbour ``v`` and copies
``v``'s entire (out-)neighbour list into its own.  Like Name Dropper the
messages are Θ(n) IDs in the worst case, and on directed graphs the
Harchol-Balter et al. example gives it an Ω(n) round lower bound.

We provide both the directed form (the one discussed in the paper, used
as a baseline for the directed two-hop walk experiments) and an undirected
form for the undirected comparison sweep.  A synchronous round builds each
pull's *teach row* — the chosen neighbour's packed (out-)row minus the
puller's row and the puller — and expands only the pulled payloads that
teach something, a chunk of pulls at a time, inserting only the IDs they
teach (:func:`~repro.baselines._packed.insert_taught_edges`).  Degree
sums feed the ``messages_sent``/``bits_sent`` accounting, and
``proposed_edges`` is rebuilt from the rows on first access.

On a directed graph the run ends at the transitive closure of ``G_0``.
Pointer jump adds only edges inside that closure (``u → v → w`` is a
path), so one counter decides convergence: it starts at the number of
closure pairs missing from ``G_0``, counted on packed rows, and falls by
one for every new edge.

Trace contract: synchronous rounds draw one bulk ``rng.random(m)`` over
the ``m`` participating nodes, sequential rounds one ``rng.integers`` per
active node; payloads are snapshotted against the round-start graph, and
the round adds the edges a per-node payload loop would add, in the same
order.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.baselines._packed import PayloadProposals, insert_taught_edges, packed_rows
from repro.core.base import (
    AddedEdges,
    DiscoveryProcess,
    RoundResult,
    UpdateSemantics,
    node_array,
)
from repro.graphs import bitset
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph
from repro.graphs.closure import closure_target_bits

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
    ) -> None:
        if not isinstance(graph, (ArrayGraph, ArrayDiGraph)):
            raise TypeError(
                f"RandomPointerJump requires an ArrayGraph or ArrayDiGraph, got {type(graph).__name__}"
            )
        super().__init__(graph, rng, semantics)
        self._directed = graph.directed
        # Directed: the closure of G_0 without its diagonal, and the number
        # of its pairs still missing from the graph.
        self._target_bits: Optional[np.ndarray] = None
        self._deficit = 0
        if self._directed:
            self._target_bits = closure_target_bits(graph)
            self._deficit = bitset.count_total(self._target_bits & ~graph.adjacency_bits())

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
            self._packed_round(result, active)
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
        self._absorb_added(result.added_edges)

    def _packed_round(self, result: RoundResult, active: np.ndarray) -> None:
        """Synchronous packed round: expand only the pulled IDs that are new.

        One uniform per participating node picks its target.  Puller
        ``u`` pulls its chosen neighbour's round-start row;
        :func:`insert_taught_edges` inserts the IDs ``u`` lacks, in
        participating-node and row order, so the new edges take a
        per-node payload loop's first-occurrence edge order exactly.
        ``proposed_edges`` lists every pulled ID but ``(u, u)``, built on
        first access.
        """
        graph = self.graph
        targets = self._bulk_targets(active)
        valid = targets >= 0
        pullers = active[valid]
        result.messages_sent = 2 * int(pullers.size)  # request + bulk reply each
        chosen = targets[valid]
        counts = packed_rows(graph)[1][chosen]
        result.bits_sent = int((1 + counts).sum()) * self._id_bits
        if pullers.size == 0:
            return
        result.attach_batch(PayloadProposals(graph, pullers, chosen, counts, with_self=False))
        added = insert_taught_edges(graph, pullers, chosen, counts)
        result.added_edges = added
        self._absorb_added(added)

    def _absorb_added(self, added: AddedEdges) -> None:
        """Count a round's new edges off the directed closure deficit.

        Every new edge lies inside the closure of ``G_0`` and was missing,
        so each one closes exactly one missing pair.
        """
        if self._directed:
            self._deficit -= len(added)

    def missing_closure_pairs(self) -> np.ndarray:
        """The closure pairs of ``G_0`` still missing (directed), as a sorted ``(k, 2)`` array."""
        us, vs = bitset.delta_edges(
            self.graph.adjacency_bits(), self._target_bits, self.graph.n, directed=True
        )
        return np.stack((us, vs), axis=1)

    def _apply_action(self, u: int, payload: List[int], result: RoundResult) -> None:
        result.messages_sent += 2  # request + bulk reply
        result.bits_sent += (1 + len(payload)) * self._id_bits
        for w in payload:
            if w == u:
                continue
            result.proposed_edges.append((u, w))
            if self.graph.add_edge(u, w):
                result.added_edges.append((u, w))

    def is_converged(self) -> bool:
        """Complete graph (undirected) or transitive closure (directed)."""
        if self._directed:
            return self._deficit == 0
        return self.graph.is_complete()

    def default_round_cap(self) -> int:
        """Pointer jump is Ω(n) on bad directed instances; cap at a large multiple of n log n."""
        n = max(self.graph.n, 2)
        log_n = float(np.log2(n)) + 1.0
        return int(40 * n * log_n) + 100
