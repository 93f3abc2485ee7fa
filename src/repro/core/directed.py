"""The directed two-hop walk process — paper §5.

In each round, each node ``u`` takes a two-hop *directed* random walk
``u → v → w`` (``v`` uniform over ``u``'s out-neighbours, ``w`` uniform
over ``v``'s out-neighbours, both in the round-start graph) and adds the
directed edge ``(u, w)``.

The process terminates when the edge set equals the transitive closure of
the initial graph ``G_0``: every node ``u`` has a direct edge to every node
it could originally reach.  Theorem 14 gives an ``O(n² log n)`` upper bound
and an ``Ω(n² log n)`` weakly-connected lower bound; Theorem 15 gives an
``Ω(n²)`` lower bound on a strongly connected construction.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set, Tuple, Union

import numpy as np

from repro.core.base import (
    AddedEdges,
    BatchProposals,
    DiscoveryProcess,
    UpdateSemantics,
    node_array,
)
from repro.graphs import bitset
from repro.graphs.array_adjacency import ArrayDiGraph, EdgeArrays
from repro.graphs.closure import IncrementalClosure, adjacency_bits

__all__ = ["DirectedTwoHopWalk"]


class DirectedTwoHopWalk(DiscoveryProcess):
    """The two-hop walk process on a directed graph with closure termination.

    The target transitive closure is computed once from the starting graph
    and kept as **packed bitset rows** (n²/8 bytes) rather than a Python
    set of ordered pairs, so the termination target stays affordable at
    large ``n``.  The still-missing-closure-edges deficit is a counter
    maintained with one batched membership test per round, and the live
    closure of the evolving graph is tracked by an
    :class:`~repro.graphs.closure.IncrementalClosure` (row-OR propagation
    per edge batch instead of Warshall recomputes) — the walk only ever
    adds edges inside the initial closure, so each round's maintenance is
    O(#added edges).

    Parameters
    ----------
    graph:
        Directed starting graph (mutated in place).  Every node should have
        out-degree at least 1 for the walk to be defined everywhere;
        out-degree-0 nodes simply never act (their reachable set is empty,
        so they owe no closure edges either).
    rng:
        Seed or :class:`numpy.random.Generator`.
    semantics:
        Synchronous (default) or sequential updates.
    """

    #: request to v, reply with w's ID, introduction/edge creation toward w.
    MESSAGES_PER_NODE = 3

    def __init__(
        self,
        graph: ArrayDiGraph,
        rng: Union[np.random.Generator, int, None] = None,
        semantics: UpdateSemantics = UpdateSemantics.SYNCHRONOUS,
    ) -> None:
        if not isinstance(graph, ArrayDiGraph):
            raise TypeError(
                f"DirectedTwoHopWalk requires an ArrayDiGraph, got {type(graph).__name__}"
            )
        super().__init__(graph, rng, semantics)
        # One full Warshall pass at construction; every later update is
        # incremental.  The target excludes the diagonal (cycles through u
        # are never edges), matching transitive_closure_edges().
        self._closure = IncrementalClosure.from_graph(graph)
        self._target_bits = self._closure.closure_bits().copy()
        diag = np.arange(graph.n, dtype=np.int64)
        bitset.clear_bits(self._target_bits, diag, diag)
        self._deficit = int(
            bitset.count_total(self._target_bits & ~adjacency_bits(graph))
        )

    # ------------------------------------------------------------------ #
    # process definition
    # ------------------------------------------------------------------ #
    def propose(self, node: int) -> Optional[Tuple[int, int]]:
        """Sample the endpoint of ``node``'s directed two-hop walk this round."""
        out = self.graph.out_neighbors(node)
        if len(out) == 0:
            return None
        v = self.graph.random_out_neighbor(node, self.rng)
        v_out = self.graph.out_neighbors(v)
        if len(v_out) == 0:
            return None
        w = self.graph.random_out_neighbor(v, self.rng)
        if w == node:
            return None
        return node, w

    def propose_batch(self, nodes: Iterable[int]) -> BatchProposals:
        """Vectorized directed round: both hops of every walk from one ``(2, m)`` block.

        ``-1`` sentinels chain dead ends through both hops.
        """
        graph = self.graph
        nodes = node_array(nodes)
        u = self.rng.random((2, nodes.shape[0]))
        vs = graph.sample_out_neighbors(nodes, u[0])
        ws = graph.sample_out_neighbors(vs, u[1])
        valid = (ws >= 0) & (ws != nodes)
        pos = valid.nonzero()[0]
        return BatchProposals(nodes.shape[0], nodes[pos], ws[pos], pos)

    def _absorb_added(self, added: AddedEdges) -> None:
        """Fold genuinely-new edges into the deficit counter and live closure.

        One batched membership test against the packed target rows replaces
        the old per-edge set discards; the live closure's update is O(1)
        per edge already implied (the walk never proposes anything else).
        Every insertion path — per-edge :meth:`apply_edge` and the batched
        synchronous round — funnels its new edges here.
        """
        if not len(added):
            return
        edges = EdgeArrays.of(added)
        in_target = bitset.get_bits(self._target_bits, edges.us, edges.vs)
        self._deficit -= int(in_target.sum())
        self._closure.add_edges(edges.us, edges.vs)

    def apply_edge(self, edge: Tuple[int, int]) -> bool:
        """Insert one edge (the sequential ablation) and keep the deficit counter current."""
        added = self.graph.add_edge(*edge)
        if added:
            self._absorb_added([edge])
        return added

    def apply_proposals(self, batch: BatchProposals) -> EdgeArrays:
        """Batched insert plus closure-deficit bookkeeping over the new edges only."""
        added = super().apply_proposals(batch)
        self._absorb_added(added)
        return added

    def is_converged(self) -> bool:
        """True when every transitive-closure edge of ``G_0`` is present."""
        return self._deficit == 0

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def target_closure(self) -> Set[Tuple[int, int]]:
        """The set of ordered pairs the process must eventually connect."""
        us, vs = np.nonzero(bitset.unpack_bool_matrix(self._target_bits, self.graph.n))
        return set(zip(us.tolist(), vs.tolist()))

    def missing_closure_edges(self) -> Set[Tuple[int, int]]:
        """Closure edges not yet present in the current graph."""
        missing = self._target_bits & ~adjacency_bits(self.graph)
        us, vs = np.nonzero(bitset.unpack_bool_matrix(missing, self.graph.n))
        return set(zip(us.tolist(), vs.tolist()))

    def closure_deficit_count(self) -> int:
        """Number of target-closure edges still missing (the counter itself)."""
        return self._deficit

    def live_closure(self) -> IncrementalClosure:
        """The incrementally-maintained closure of the *evolving* graph."""
        return self._closure

    def default_round_cap(self) -> int:
        """Safety cap derived from the paper's directed upper bound O(n² log n)."""
        n = max(self.graph.n, 2)
        log_n = float(np.log2(n)) + 1.0
        return int(40 * n * n * log_n) + 100
