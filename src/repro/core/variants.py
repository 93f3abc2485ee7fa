"""Robustness variants of the processes — the paper's §6 future-work ablations.

The conclusion asks about "failures associated with forming connections,
the joining and leaving of nodes, or having only a subset of nodes
participate in forming connections".  This module implements those
variants so experiment E11 can measure how gracefully the convergence time
degrades:

* :class:`FaultyPushDiscovery` / :class:`FaultyPullDiscovery` — each
  proposed connection independently *fails* with probability
  ``failure_prob`` (the introduction message is lost), and each node
  independently *participates* in a round with probability
  ``participation_prob``.
* :class:`ChurnModel` — a simple join/leave overlay: inactive nodes make
  no proposals and are never chosen as new contacts by the walk-based
  process (they can still appear inside old neighbour lists, exactly like
  a stale address in a real peer-to-peer cache).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from repro.core.base import BatchProposals, DiscoveryProcess, UpdateSemantics
from repro.core.push import PushDiscovery
from repro.core.pull import PullDiscovery
from repro.graphs.array_adjacency import ArrayGraph

__all__ = ["FaultyPushDiscovery", "FaultyPullDiscovery", "ChurnModel"]


class _FaultyMixin:
    """Shared failure / participation logic for the faulty process variants."""

    failure_prob: float
    participation_prob: float

    def _init_faults(self, failure_prob: float, participation_prob: float) -> None:
        if not (0.0 <= failure_prob < 1.0):
            raise ValueError(f"failure_prob must be in [0, 1), got {failure_prob}")
        if not (0.0 < participation_prob <= 1.0):
            raise ValueError(
                f"participation_prob must be in (0, 1], got {participation_prob}"
            )
        self.failure_prob = failure_prob
        self.participation_prob = participation_prob

    def participating_nodes(self) -> Iterable[int]:
        """Each node independently participates with ``participation_prob``."""
        if self.participation_prob >= 1.0:
            return self.graph.nodes()
        mask = self.rng.random(self.graph.n) < self.participation_prob
        return np.flatnonzero(mask).tolist()

    def _connection_fails(self) -> bool:
        return self.failure_prob > 0.0 and float(self.rng.random()) < self.failure_prob

    def _faulty_propose_batch(self, nodes, owner):
        """Vectorized faulty round: base kernel plus one bulk failure draw.

        With ``failure_prob == 0`` this is draw-for-draw identical to the
        fault-free process, preserving the "zero faults behaves like the
        base process" contract.  ``owner`` is the concrete
        faulty class whose ``propose`` pairs with this batch rule; any
        further customisation falls back to the per-node path.
        """
        if not self._propose_is(owner) or not self._default_accounting():
            return DiscoveryProcess.propose_batch(self, nodes)
        batch = self._propose_batch_kernel(nodes)
        if self.failure_prob > 0.0 and batch.count:
            # One uniform per participating node (drawn after the proposals,
            # like the scalar path) masks out the lost introductions.
            fails = self.rng.random(batch.count) < self.failure_prob
            keep = np.flatnonzero(~fails[batch.pos])
            batch = BatchProposals(batch.count, batch.us[keep], batch.vs[keep], batch.pos[keep])
        return batch


class FaultyPushDiscovery(_FaultyMixin, PushDiscovery):
    """Triangulation with lossy introductions and partial participation."""

    def __init__(
        self,
        graph: ArrayGraph,
        rng: Union[np.random.Generator, int, None] = None,
        semantics: UpdateSemantics = UpdateSemantics.SYNCHRONOUS,
        failure_prob: float = 0.0,
        participation_prob: float = 1.0,
    ) -> None:
        super().__init__(graph, rng=rng, semantics=semantics)
        self._init_faults(failure_prob, participation_prob)

    def propose(self, node: int) -> Optional[Tuple[int, int]]:
        edge = super().propose(node)
        if edge is not None and self._connection_fails():
            return None
        return edge

    def propose_batch(self, nodes):
        """Vectorized faulty push (see :meth:`_FaultyMixin._faulty_propose_batch`)."""
        return self._faulty_propose_batch(nodes, FaultyPushDiscovery)


class FaultyPullDiscovery(_FaultyMixin, PullDiscovery):
    """Two-hop walk with lossy introductions and partial participation."""

    def __init__(
        self,
        graph: ArrayGraph,
        rng: Union[np.random.Generator, int, None] = None,
        semantics: UpdateSemantics = UpdateSemantics.SYNCHRONOUS,
        failure_prob: float = 0.0,
        participation_prob: float = 1.0,
    ) -> None:
        super().__init__(graph, rng=rng, semantics=semantics)
        self._init_faults(failure_prob, participation_prob)

    def propose(self, node: int) -> Optional[Tuple[int, int]]:
        edge = super().propose(node)
        if edge is not None and self._connection_fails():
            return None
        return edge

    def propose_batch(self, nodes):
        """Vectorized faulty pull (see :meth:`_FaultyMixin._faulty_propose_batch`)."""
        return self._faulty_propose_batch(nodes, FaultyPullDiscovery)


class ChurnModel:
    """A join/leave overlay on top of a push or pull process.

    Nodes toggle between *active* and *inactive*.  Inactive nodes make no
    proposals; proposals whose new endpoint is inactive fail (the contact
    is unreachable).  Edges are never removed — an inactive node's entries
    simply go stale, as in a real peer cache.

    Convergence is defined over the *currently active* node set: the model
    reports completion when every pair of active nodes is connected.

    Parameters
    ----------
    process:
        A :class:`PushDiscovery` or :class:`PullDiscovery` instance to wrap.
    leave_prob, join_prob:
        Per-round probability for an active node to leave and for an
        inactive node to rejoin.
    min_active_fraction:
        Churn never drives the active set below this fraction of all nodes
        (so the experiment remains meaningful).
    """

    def __init__(
        self,
        process: Union[PushDiscovery, PullDiscovery],
        leave_prob: float = 0.01,
        join_prob: float = 0.1,
        min_active_fraction: float = 0.5,
        rng: Union[np.random.Generator, int, None] = None,
    ) -> None:
        if not (0.0 <= leave_prob < 1.0) or not (0.0 <= join_prob <= 1.0):
            raise ValueError("leave_prob must be in [0,1) and join_prob in [0,1]")
        if not (0.0 < min_active_fraction <= 1.0):
            raise ValueError("min_active_fraction must be in (0, 1]")
        self.process = process
        self.graph = process.graph
        self.leave_prob = leave_prob
        self.join_prob = join_prob
        self.min_active = max(2, int(np.ceil(min_active_fraction * self.graph.n)))
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.active: Set[int] = set(range(self.graph.n))
        self._install_hooks()

    def _install_hooks(self) -> None:
        original_propose = self.process.propose
        active = self.active

        def guarded_propose(node: int):
            if node not in active:
                return None
            edge = original_propose(node)
            if edge is None:
                return None
            u, v = edge
            # The newly-contacted endpoint must be reachable (active).
            if u not in active or v not in active:
                return None
            return edge

        self.process.propose = guarded_propose  # type: ignore[method-assign]

    def churn_step(self) -> None:
        """Apply one round of random leaves and joins, respecting the floor."""
        nodes = list(range(self.graph.n))
        for node in nodes:
            if node in self.active:
                if len(self.active) > self.min_active and float(self.rng.random()) < self.leave_prob:
                    self.active.discard(node)
            else:
                if float(self.rng.random()) < self.join_prob:
                    self.active.add(node)

    def active_pairs_complete(self) -> bool:
        """True when every pair of currently active nodes is connected."""
        active = sorted(self.active)
        for i, u in enumerate(active):
            for v in active[i + 1:]:
                if not self.graph.has_edge(u, v):
                    return False
        return True

    def run(self, max_rounds: int) -> Tuple[int, bool]:
        """Alternate churn and process rounds; return ``(rounds, converged)``."""
        for rounds in range(1, max_rounds + 1):
            self.churn_step()
            self.process.step()
            if self.active_pairs_complete():
                return rounds, True
        return max_rounds, False
