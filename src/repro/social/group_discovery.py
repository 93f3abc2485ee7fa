"""Members-of-a-group discovery (experiment E9).

The paper's corollary: if ``k`` nodes of a social network induce a
connected subgraph and run the gossip process among themselves, every
member discovers every other member in ``O(k log² k)`` rounds — regardless
of the host network's size.  :func:`discover_group` runs that scenario end
to end: pick (or accept) a group, verify it induces a connected subgraph,
run the restricted process, and report both the convergence rounds and the
normalisation by ``k log² k``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.subset import SubsetDiscovery
from repro.graphs.array_adjacency import ArrayGraph
from repro.simulation.rng import require_seed

__all__ = ["GroupDiscoveryResult", "discover_group", "sample_connected_group"]


@dataclass(frozen=True)
class GroupDiscoveryResult:
    """Outcome of one group-discovery run."""

    group_size: int
    host_size: int
    rounds: int
    converged: bool
    rounds_over_k_log2_k: float
    members: List[int]


def sample_connected_group(
    graph: ArrayGraph, k: int, rng: Union[np.random.Generator, int, None] = None
) -> List[int]:
    """Sample ``k`` nodes inducing a connected subgraph via a random BFS ball.

    Starting from a random seed node, grow the group by repeatedly adding a
    random host-graph neighbour of the current group.  The resulting group
    always induces a connected subgraph of the host.
    """
    if k < 1 or k > graph.n:
        raise ValueError(f"group size must be in [1, {graph.n}], got {k}")
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    start = int(rng.integers(graph.n))
    group = [start]
    group_set = {start}
    frontier = graph.neighbors(start).tolist()
    while len(group) < k:
        candidates = [v for v in frontier if v not in group_set]
        if not candidates:
            raise ValueError(
                f"could not grow a connected group of size {k} from node {start}; "
                "the host component is too small"
            )
        pick = candidates[int(rng.integers(len(candidates)))]
        group.append(pick)
        group_set.add(pick)
        frontier.extend(graph.neighbors(pick).tolist())
    return group


def discover_group(
    host: ArrayGraph,
    members: Optional[Sequence[int]] = None,
    k: Optional[int] = None,
    process: str = "push",
    seed: Optional[int] = None,
    max_rounds: Optional[int] = None,
) -> GroupDiscoveryResult:
    """Run the group-discovery scenario on ``host``.

    Exactly one of ``members`` (an explicit group) or ``k`` (sample a
    connected group of that size) must be provided.  Group sampling and
    the restricted process share one generator, seeded by ``seed``, which
    is required (``None`` raises ``ValueError``).
    """
    require_seed(seed, "discover_group")
    if (members is None) == (k is None):
        raise ValueError("provide exactly one of `members` or `k`")
    rng = np.random.default_rng(seed)
    if members is None:
        members = sample_connected_group(host, int(k), rng)
    subset = SubsetDiscovery(host, members, process=process, rng=rng)
    result = subset.run_to_convergence(max_rounds=max_rounds)
    group_size = subset.k
    log_k = max(float(np.log(group_size)), 1.0)
    return GroupDiscoveryResult(
        group_size=group_size,
        host_size=host.n,
        rounds=result.rounds,
        converged=result.converged,
        rounds_over_k_log2_k=result.rounds / (group_size * log_k * log_k),
        members=list(members),
    )
