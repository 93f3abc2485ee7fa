"""The pull discovery (two-hop walk) process — paper §4.

In each round, each node ``u`` picks a uniformly random neighbour ``v``,
then a uniformly random neighbour ``w`` of ``v`` (both from the round-start
graph), and adds the undirected edge ``(u, w)``.  If ``w == u`` or the edge
already exists nothing changes.  Operationally ``u`` asks ``v`` for the ID
of one of ``v``'s neighbours ("pulls" a contact) and then introduces
itself to ``w`` — three ``O(log n)``-bit messages per node per round
(request, reply, introduction).

Theorem 12: on any connected undirected graph the process reaches the
complete graph in ``O(n log² n)`` rounds w.h.p.; Theorem 13 gives the
``Ω(n log k)`` lower bound.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.core.base import BatchProposals, DiscoveryProcess, UpdateSemantics
from repro.graphs.array_adjacency import ArrayGraph

__all__ = ["PullDiscovery"]


class PullDiscovery(DiscoveryProcess):
    """The two-hop walk process on an undirected graph.

    Parameters
    ----------
    graph:
        Connected undirected starting graph (mutated in place).
    rng:
        Seed or :class:`numpy.random.Generator`.
    semantics:
        Synchronous (default) or sequential updates.
    """

    #: request to v, reply with w's ID, introduction message to w.
    MESSAGES_PER_NODE = 3

    def __init__(
        self,
        graph: ArrayGraph,
        rng: Union[np.random.Generator, int, None] = None,
        semantics: UpdateSemantics = UpdateSemantics.SYNCHRONOUS,
    ) -> None:
        if not isinstance(graph, ArrayGraph):
            raise TypeError(f"PullDiscovery requires an ArrayGraph, got {type(graph).__name__}")
        super().__init__(graph, rng, semantics)

    def propose(self, node: int) -> Optional[Tuple[int, int]]:
        """Sample the endpoint of ``node``'s two-hop walk this round."""
        nbrs = self.graph.neighbors(node)
        if len(nbrs) == 0:
            return None
        v = self.graph.random_neighbor(node, self.rng)
        w = self.graph.random_neighbor(v, self.rng)
        if w == node:
            # The walk returned home: no new contact this round.
            return None
        return node, w

    def sample_batch(self, graph: ArrayGraph, nodes: np.ndarray, u: np.ndarray) -> BatchProposals:
        """Vectorized pull round: both hops of every node's walk from the ``(2, m)`` block ``u``.

        Hop one runs over all nodes, hop two over the sampled ``v``s.  The
        second hop chains through the ``-1`` sentinel, so isolated nodes
        consume their uniforms (keeping the draw stream aligned) without
        ever touching a neighbour row.
        """
        vs = graph.sample_neighbors(nodes, u[0])
        ws = graph.sample_neighbors(vs, u[1])
        valid = (ws >= 0) & (ws != nodes)
        pos = valid.nonzero()[0]
        return BatchProposals(nodes.shape[0], nodes[pos], ws[pos], pos)

    def is_converged(self) -> bool:
        """The absorbing state of the undirected processes is the complete graph."""
        return self.graph.is_complete()
