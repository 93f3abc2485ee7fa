"""The push discovery (triangulation) process — paper §3.

In each round, each node ``u`` draws two neighbours ``v`` and ``w``
uniformly at random (independently, with replacement) from its current
neighbourhood and adds the undirected edge ``(v, w)``.  If ``v == w`` or
the edge already exists nothing changes.  Operationally ``u`` "introduces"
``v`` and ``w`` to each other by sending each the other's ID — two
``O(log n)``-bit messages per node per round.

Theorem 8: on any connected undirected graph the process reaches the
complete graph in ``O(n log² n)`` rounds w.h.p.; Theorem 9 gives the
``Ω(n log k)`` lower bound when ``k`` edges are missing.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.core.base import BatchProposals, DiscoveryProcess, UpdateSemantics
from repro.graphs.array_adjacency import ArrayGraph
from repro.graphs.sampling import uniform_indices

__all__ = ["PushDiscovery"]


class PushDiscovery(DiscoveryProcess):
    """The triangulation process on an undirected graph.

    Parameters
    ----------
    graph:
        Connected undirected starting graph (mutated in place).
    rng:
        Seed or :class:`numpy.random.Generator`.
    semantics:
        Synchronous (default, the paper's model) or sequential updates.
    without_replacement:
        Ablation flag: when True and a node has at least two neighbours,
        the two introduced neighbours are drawn *without* replacement, so a
        node never wastes a round introducing a neighbour to itself.  The
        paper's process uses with-replacement sampling (default False).
    """

    #: a push round sends each chosen neighbour the other's ID.
    MESSAGES_PER_NODE = 2

    def __init__(
        self,
        graph: ArrayGraph,
        rng: Union[np.random.Generator, int, None] = None,
        semantics: UpdateSemantics = UpdateSemantics.SYNCHRONOUS,
        without_replacement: bool = False,
    ) -> None:
        if not isinstance(graph, ArrayGraph):
            raise TypeError(f"PushDiscovery requires an ArrayGraph, got {type(graph).__name__}")
        super().__init__(graph, rng, semantics)
        self.without_replacement = without_replacement

    def propose(self, node: int) -> Optional[Tuple[int, int]]:
        """Sample the pair of neighbours that ``node`` introduces this round."""
        nbrs = self.graph.neighbors(node)
        k = len(nbrs)
        if k == 0:
            return None
        if self.without_replacement and k >= 2:
            i = int(self.rng.integers(k))
            j = int(self.rng.integers(k - 1))
            if j >= i:
                j += 1
            return nbrs[i], nbrs[j]
        v, w = self.graph.random_neighbor_pair(node, self.rng)
        if v == w:
            # Introducing a neighbour to itself adds nothing; still counts
            # as the node's action (and its messages) for this round.
            return None
        return v, w

    def sample_batch(self, graph: ArrayGraph, nodes: np.ndarray, u: np.ndarray) -> BatchProposals:
        """Vectorized push round: every node's neighbour pair from the ``(2, m)`` block ``u``.

        With replacement (the paper's process): one uniform per introduced
        endpoint, mapped to indices by the shared sampling rule and
        gathered in one call.  Without replacement: the same block over
        ``k`` and ``k - 1`` slots with the collision-shift, so no draw is
        wasted on ``v == w``.
        """
        if self.without_replacement:
            deg = graph.degrees()[nodes]
            i = uniform_indices(u[0], deg)
            j = uniform_indices(u[1], deg - 1)
            j = np.where(j >= i, j + 1, j)
            vs = graph.neighbors_at(nodes, i)
            ws = graph.neighbors_at(nodes, np.where(deg >= 2, j, -1))
            valid = deg >= 2
        else:
            vs, ws = graph.sample_neighbors(nodes, u)
            # An isolated node samples -1 twice, so this also drops it.
            valid = vs != ws
        pos = valid.nonzero()[0]
        return BatchProposals(nodes.shape[0], vs[pos], ws[pos], pos)

    def is_converged(self) -> bool:
        """The absorbing state of the undirected processes is the complete graph."""
        return self.graph.is_complete()
