"""Group (subset) discovery — the O(k log² k) corollary of the paper's §1 results.

The paper observes that if a subset of ``k`` nodes induces a connected
subgraph and the gossip process is run *restricted to that subgraph* (each
group member only introduces / pulls group members), then the subgraph
becomes complete in ``O(k log² k)`` rounds w.h.p. — independent of the
size of the host network.  This module wraps that restriction: it extracts
the induced subgraph, runs the chosen process on it, and exposes the result
both in subgraph labels and in the host graph's original labels.

This is the "members of a social group discover one another" scenario
(alumni of a school, members of a club) from the introduction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.base import RunResult, UpdateSemantics
from repro.core.push import PushDiscovery
from repro.core.pull import PullDiscovery
from repro.graphs.array_adjacency import ArrayGraph
from repro.graphs import properties

__all__ = ["SUBSET_PROCESSES", "SubsetDiscovery"]

#: the processes a group can run among its own members.
SUBSET_PROCESSES = ("push", "pull")


class SubsetDiscovery:
    """Run a discovery process restricted to an induced subgraph of a host graph.

    Parameters
    ----------
    host:
        The full network.  It is *not* mutated — the group runs on its own
        copy of the induced subgraph, mirroring the paper's setup where the
        group's gossip only involves group members.
    members:
        The node labels (in the host graph) forming the group.  The induced
        subgraph must be connected, as the paper requires.
    process:
        ``"push"`` (triangulation) or ``"pull"`` (two-hop walk).
    rng:
        Seed or :class:`numpy.random.Generator`.
    """

    def __init__(
        self,
        host: ArrayGraph,
        members: Sequence[int],
        process: str = "push",
        rng: Union[np.random.Generator, int, None] = None,
        semantics: UpdateSemantics = UpdateSemantics.SYNCHRONOUS,
    ) -> None:
        if len(members) < 2:
            raise ValueError("a group needs at least 2 members")
        if process not in SUBSET_PROCESSES:
            raise ValueError(f"process must be one of {SUBSET_PROCESSES}, got {process!r}")
        self.host = host
        self.members: List[int] = list(members)
        # Subgraph edges are inserted in sorted order, so the restricted
        # run is reproducible from a seed whatever order the host's rows hold.
        self.subgraph, self._to_sub = host.subgraph(self.members)
        self._to_host: Dict[int, int] = {sub: orig for orig, sub in self._to_sub.items()}
        if not properties.is_connected(self.subgraph):
            raise ValueError(
                "the group must induce a connected subgraph for the paper's "
                "O(k log^2 k) guarantee to apply"
            )
        cls = PushDiscovery if process == "push" else PullDiscovery
        self.process = cls(self.subgraph, rng=rng, semantics=semantics)

    @property
    def k(self) -> int:
        """Group size."""
        return len(self.members)

    def run_to_convergence(self, max_rounds: Optional[int] = None, **kwargs) -> RunResult:
        """Run the restricted process until the group subgraph is complete."""
        return self.process.run_to_convergence(max_rounds=max_rounds, **kwargs)

    def discovered_pairs(self) -> List[Tuple[int, int]]:
        """Current group edges expressed in the host graph's node labels."""
        return sorted(
            (min(self._to_host[u], self._to_host[v]), max(self._to_host[u], self._to_host[v]))
            for u, v in self.subgraph.edges()
        )

    def is_group_complete(self) -> bool:
        """True when every pair of group members has discovered each other."""
        return self.subgraph.is_complete()

    def to_host_label(self, sub_node: int) -> int:
        """Translate a subgraph node label back to the host graph label."""
        return self._to_host[sub_node]

    def to_subgraph_label(self, host_node: int) -> int:
        """Translate a host graph node label to the subgraph label."""
        return self._to_sub[host_node]
