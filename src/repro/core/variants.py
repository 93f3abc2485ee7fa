"""Robustness variants of the processes — the paper's §6 future-work ablations.

The conclusion asks about "failures associated with forming connections,
the joining and leaving of nodes, or having only a subset of nodes
participate in forming connections".  This module implements the first
and the last so experiment E11 can measure how gracefully the convergence
time degrades:

* :class:`FaultyPushDiscovery` / :class:`FaultyPullDiscovery` — each
  proposed connection independently *fails* with probability
  ``failure_prob`` (the introduction message is lost), and each node
  independently *participates* in a round with probability
  ``participation_prob``.

Nodes joining and leaving are modelled by the network engine's
:class:`~repro.network.events.ChurnSchedule` (``async --churn-rate``).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple, Union

import numpy as np

from repro.core.base import BatchProposals, UpdateSemantics
from repro.core.push import PushDiscovery
from repro.core.pull import PullDiscovery
from repro.graphs.array_adjacency import ArrayGraph

__all__ = ["FaultyPushDiscovery", "FaultyPullDiscovery"]


class _FaultyMixin:
    """Shared failure / participation logic for the faulty process variants.

    Listed before the process class, so ``super()`` reaches the fault-free
    push or pull rule.
    """

    failure_prob: float
    participation_prob: float

    def __init__(
        self,
        graph: ArrayGraph,
        rng: Union[np.random.Generator, int, None] = None,
        semantics: UpdateSemantics = UpdateSemantics.SYNCHRONOUS,
        failure_prob: float = 0.0,
        participation_prob: float = 1.0,
    ) -> None:
        if not (0.0 <= failure_prob < 1.0):
            raise ValueError(f"failure_prob must be in [0, 1), got {failure_prob}")
        if not (0.0 < participation_prob <= 1.0):
            raise ValueError(
                f"participation_prob must be in (0, 1], got {participation_prob}"
            )
        super().__init__(graph, rng=rng, semantics=semantics)
        self.failure_prob = failure_prob
        self.participation_prob = participation_prob

    def participating_nodes(self) -> Iterable[int]:
        """Each node independently participates with ``participation_prob``."""
        if self.participation_prob >= 1.0:
            return self.graph.nodes()
        mask = self.rng.random(self.graph.n) < self.participation_prob
        return np.flatnonzero(mask).tolist()

    def propose(self, node: int) -> Optional[Tuple[int, int]]:
        """The fault-free proposal, lost with probability ``failure_prob``."""
        edge = super().propose(node)
        if edge is not None and self.failure_prob > 0.0 and self.rng.random() < self.failure_prob:
            return None
        return edge

    def propose_batch(self, nodes: Iterable[int]) -> BatchProposals:
        """The fault-free kernel, then one bulk failure draw.

        With ``failure_prob == 0`` this is draw-for-draw identical to the
        fault-free process, preserving the "zero faults behaves like the
        base process" contract.
        """
        batch = super().propose_batch(nodes)
        if self.failure_prob > 0.0 and batch.count:
            # One uniform per participating node (drawn after the proposals,
            # like the scalar path) masks out the lost introductions.
            fails = self.rng.random(batch.count) < self.failure_prob
            keep = np.flatnonzero(~fails[batch.pos])
            batch = BatchProposals(batch.count, batch.us[keep], batch.vs[keep], batch.pos[keep])
        return batch


class FaultyPushDiscovery(_FaultyMixin, PushDiscovery):
    """Triangulation with lossy introductions and partial participation."""


class FaultyPullDiscovery(_FaultyMixin, PullDiscovery):
    """Two-hop walk with lossy introductions and partial participation."""
