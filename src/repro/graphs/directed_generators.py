"""Directed graph family generators, including the paper's lower-bound constructions.

Two constructions are lifted directly from the paper:

* :func:`thm14_weak_lower_bound` — the weakly connected digraph used in
  Theorem 14's Ω(n² log n) lower bound (Appendix D, proof of Theorem 14).
* :func:`thm15_strong_lower_bound` — the strongly connected digraph of
  Figures 3/4 used in Theorem 15's Ω(n²) lower bound.

The remaining families (directed cycles/paths, random digraphs, layered
DAGs, complete digraphs) support the O(n² log n) upper-bound sweeps.
Every family is an :class:`repro.graphs.array_adjacency.ArrayDiGraph`
built with one batched insert in which the first occurrence of an edge
wins, so each out-neighbour row lists its edges in construction order.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.graphs.array_adjacency import ArrayDiGraph

__all__ = [
    "directed_path",
    "directed_cycle",
    "complete_digraph",
    "bidirected_path",
    "bidirected_cycle",
    "bidirected_star",
    "random_digraph",
    "random_strongly_connected_digraph",
    "random_tournament",
    "layered_dag",
    "thm14_weak_lower_bound",
    "thm15_strong_lower_bound",
    "DIRECTED_FAMILY_REGISTRY",
    "make_directed_family",
    "directed_family_names",
]


def _ensure_rng(
    rng: Union[np.random.Generator, np.random.SeedSequence, int, None],
) -> np.random.Generator:
    """Coerce an explicit seed source to a ``Generator``; reject ``None``.

    Same explicit-seed contract as the undirected families: an unseeded
    fallback would silently void trace replayability (the ``determinism``
    rule of ``tests/test_source_rules.py``), so fresh entropy must be
    requested explicitly with ``default_rng(None)`` at the call site.
    """
    if rng is None:
        raise ValueError(
            "random directed families require an explicit rng (np.random."
            "Generator, SeedSequence or integer seed); an unseeded graph "
            "cannot be replayed"
        )
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


# --------------------------------------------------------------------------- #
# deterministic families
# --------------------------------------------------------------------------- #
def directed_path(n: int) -> ArrayDiGraph:
    """Directed path ``0 -> 1 -> ... -> n-1`` (weakly connected)."""
    if n < 1:
        raise ValueError("directed path needs at least 1 node")
    return ArrayDiGraph(n, ((i, i + 1) for i in range(n - 1)))


def directed_cycle(n: int) -> ArrayDiGraph:
    """Directed cycle on ``n >= 2`` nodes (strongly connected, out-degree 1)."""
    if n < 2:
        raise ValueError("directed cycle needs at least 2 nodes")
    return ArrayDiGraph(n, ((i, (i + 1) % n) for i in range(n)))


def complete_digraph(n: int) -> ArrayDiGraph:
    """Complete digraph: every ordered pair of distinct nodes is an edge."""
    if n < 1:
        raise ValueError("complete digraph needs at least 1 node")
    return ArrayDiGraph(n, ((u, v) for u in range(n) for v in range(n) if u != v))


def bidirected_path(n: int) -> ArrayDiGraph:
    """Path with both edge directions present (directed analogue of an undirected path)."""
    if n < 1:
        raise ValueError("bidirected path needs at least 1 node")
    edges = []
    for i in range(n - 1):
        edges.append((i, i + 1))
        edges.append((i + 1, i))
    return ArrayDiGraph(n, edges)


def bidirected_cycle(n: int) -> ArrayDiGraph:
    """Cycle with both edge directions present."""
    if n < 3:
        raise ValueError("bidirected cycle needs at least 3 nodes")
    edges = []
    for i in range(n):
        j = (i + 1) % n
        edges.append((i, j))
        edges.append((j, i))
    return ArrayDiGraph(n, edges)


def bidirected_star(n: int) -> ArrayDiGraph:
    """Star with both edge directions between the centre 0 and each leaf."""
    if n < 2:
        raise ValueError("bidirected star needs at least 2 nodes")
    edges = []
    for i in range(1, n):
        edges.append((0, i))
        edges.append((i, 0))
    return ArrayDiGraph(n, edges)


def layered_dag(layers: int, width: int) -> ArrayDiGraph:
    """Layered DAG: ``layers`` layers of ``width`` nodes, complete bipartite between
    consecutive layers, all edges pointing forward.  Weakly connected; its
    transitive closure connects every node to every node in later layers."""
    if layers < 1 or width < 1:
        raise ValueError("layers and width must be positive")
    n = layers * width
    edges = []
    for layer in range(layers - 1):
        for a in range(width):
            for b in range(width):
                edges.append((layer * width + a, (layer + 1) * width + b))
    return ArrayDiGraph(n, edges)


# --------------------------------------------------------------------------- #
# random families
# --------------------------------------------------------------------------- #
def random_digraph(
    n: int, p: float, rng: Optional[np.random.Generator] = None
) -> ArrayDiGraph:
    """Directed G(n, p): every ordered pair is an edge independently with probability ``p``."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = _ensure_rng(rng)
    g = ArrayDiGraph(n)
    if n > 1 and p > 0:
        mask = rng.random((n, n)) < p
        np.fill_diagonal(mask, False)
        g.add_edges_batch_arrays(*np.nonzero(mask))
    return g


def random_strongly_connected_digraph(
    n: int, extra_edge_prob: float = 0.05, rng: Optional[np.random.Generator] = None
) -> ArrayDiGraph:
    """A directed cycle through a random permutation plus independent extra edges.

    The embedded Hamiltonian cycle guarantees strong connectivity; the
    extra edges control density.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    rng = _ensure_rng(rng)
    perm = rng.permutation(n)
    us, vs = perm, np.roll(perm, -1)
    if extra_edge_prob > 0:
        mask = rng.random((n, n)) < extra_edge_prob
        np.fill_diagonal(mask, False)
        extra_us, extra_vs = np.nonzero(mask)
        us, vs = np.concatenate((us, extra_us)), np.concatenate((vs, extra_vs))
    g = ArrayDiGraph(n)
    g.add_edges_batch_arrays(us.astype(np.int64, copy=False), vs.astype(np.int64, copy=False))
    return g


def random_tournament(n: int, rng: Optional[np.random.Generator] = None) -> ArrayDiGraph:
    """Random tournament: each unordered pair gets exactly one direction, chosen uniformly."""
    rng = _ensure_rng(rng)
    # One uniform per pair in (u, v) row-major order, as a scalar loop draws them.
    iu, ju = np.triu_indices(n, k=1)
    forward = rng.random(iu.shape[0]) < 0.5
    g = ArrayDiGraph(n)
    g.add_edges_batch_arrays(np.where(forward, iu, ju), np.where(forward, ju, iu))
    return g


# --------------------------------------------------------------------------- #
# paper constructions
# --------------------------------------------------------------------------- #
def thm14_weak_lower_bound(n: int) -> ArrayDiGraph:
    """The weakly connected Ω(n² log n) lower-bound digraph of Theorem 14.

    The paper's construction (0-indexed here, ``n`` divisible by 4): for
    every ``0 <= i < n/4`` the nodes ``3i`` and ``3i + 1`` each point to all
    "sink" nodes ``j`` with ``3n/4 <= j < n``, and the local chain edges
    ``3i -> 3i+1 -> 3i+2`` are present.  The only edges the two-hop process
    ever needs to add are the n/4 "shortcut" edges ``3i -> 3i+2``; the huge
    out-degree towards the sinks makes each shortcut an Ω(n²)-expected-time
    event, and collecting all n/4 independent shortcuts costs the extra
    log factor.
    """
    if n < 8:
        raise ValueError("construction needs n >= 8")
    if n % 4 != 0:
        raise ValueError("n must be divisible by 4")
    quarter = n // 4
    sink_start = 3 * n // 4
    edges = []
    for i in range(quarter):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(a, b), (b, c)]
        for j in range(sink_start, n):
            edges += [(a, j), (b, j)]
    return ArrayDiGraph(n, edges)


def thm14_missing_edges(n: int) -> List[tuple]:
    """The shortcut edges ``3i -> 3i+2`` that the process must add on
    :func:`thm14_weak_lower_bound` (its transitive-closure deficit)."""
    if n % 4 != 0:
        raise ValueError("n must be divisible by 4")
    return [(3 * i, 3 * i + 2) for i in range(n // 4)]


def thm15_strong_lower_bound(n: int) -> ArrayDiGraph:
    """The strongly connected Ω(n²) lower-bound digraph of Theorem 15 (Figures 3/4).

    With ``n`` even and 0-indexed nodes:

    * the first half ``{0 .. n/2 - 1}`` forms a complete digraph;
    * a directed path ``n/2 - 1 -> n/2 -> n/2 + 1 -> ... -> n - 1`` leads
      through the second half;
    * every node ``i`` in the second half has edges to **all** lower-indexed
      nodes ``j < i`` (the "backward" edges that make the graph strongly
      connected and keep every out-degree ≥ n/2).

    The process must effectively push connectivity forward along the path
    one cut at a time, which costs Ω(n) expected rounds per cut and Ω(n²)
    overall.
    """
    if n < 4:
        raise ValueError("construction needs n >= 4")
    if n % 2 != 0:
        raise ValueError("n must be even")
    half = n // 2
    # Complete digraph on the first half.
    edges = [(i, j) for i in range(half) for j in range(half) if i != j]
    # Forward path through the second half (starting at the last node of the first half).
    edges += [(i, i + 1) for i in range(half - 1, n - 1)]
    # Backward edges from every second-half node to all lower-indexed nodes.
    edges += [(i, j) for i in range(half, n) for j in range(i)]
    return ArrayDiGraph(n, edges)


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
def _dir_cycle(n: int, rng: Optional[np.random.Generator] = None) -> ArrayDiGraph:
    return directed_cycle(n)


def _bidir_path(n: int, rng: Optional[np.random.Generator] = None) -> ArrayDiGraph:
    return bidirected_path(n)


def _rand_strong(n: int, rng: Optional[np.random.Generator] = None) -> ArrayDiGraph:
    p = min(1.0, 2.0 * math.log(max(n, 2)) / max(n, 2))
    return random_strongly_connected_digraph(n, extra_edge_prob=p, rng=rng)


def _thm15(n: int, rng: Optional[np.random.Generator] = None) -> ArrayDiGraph:
    return thm15_strong_lower_bound(n if n % 2 == 0 else n + 1)


def _thm14(n: int, rng: Optional[np.random.Generator] = None) -> ArrayDiGraph:
    rounded = max(8, (n // 4) * 4)
    return thm14_weak_lower_bound(rounded)


#: Mapping from directed family name to a ``(n, rng) -> ArrayDiGraph`` factory.
DIRECTED_FAMILY_REGISTRY: Dict[
    str, Callable[[int, Optional[np.random.Generator]], ArrayDiGraph]
] = {
    "directed_cycle": _dir_cycle,
    "bidirected_path": _bidir_path,
    "random_strong": _rand_strong,
    "thm14_weak": _thm14,
    "thm15_strong": _thm15,
}


def directed_family_names() -> List[str]:
    """Names of all registered directed graph families."""
    return sorted(DIRECTED_FAMILY_REGISTRY)


def make_directed_family(
    name: str, n: int, rng: Optional[np.random.Generator] = None
) -> ArrayDiGraph:
    """Instantiate the registered directed family ``name`` at (approximately) ``n`` nodes."""
    try:
        factory = DIRECTED_FAMILY_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown directed family {name!r}; known: {directed_family_names()}"
        ) from None
    return factory(n, rng)
