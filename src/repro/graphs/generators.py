"""Undirected graph family generators.

Every family used by the paper's arguments or by our experiments is built
here, on top of :class:`repro.graphs.adjacency.DynamicGraph`.  All random
generators take an explicit :class:`numpy.random.Generator` so every
experiment is reproducible from a seed.

The paper-specific constructions are:

* :func:`fig1c_nonmonotone` — the 4-edge graph of Figure 1(c) whose
  expected triangulation convergence time *exceeds* that of its 3-edge
  path subgraph (:func:`fig1c_path_subgraph`).
* Sparse worst-case-ish families (path, cycle, star, binary tree,
  lollipop) used for the Ω(n log n) lower-bound experiments and the upper
  bound sweeps.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graphs.adjacency import DynamicGraph

__all__ = [
    "empty_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "complete_bipartite_graph",
    "grid_graph",
    "hypercube_graph",
    "binary_tree_graph",
    "caterpillar_graph",
    "lollipop_graph",
    "barbell_graph",
    "wheel_graph",
    "double_star_graph",
    "erdos_renyi_graph",
    "gnm_random_graph",
    "random_tree",
    "barabasi_albert_graph",
    "watts_strogatz_graph",
    "random_regular_graph",
    "random_connected_graph",
    "complete_minus_matching",
    "complete_minus_random_edges",
    "fig1c_nonmonotone",
    "fig1c_triangle_subgraph",
    "fig1c_path_subgraph",
    "nonmonotone_supergraph_pair",
    "FAMILY_REGISTRY",
    "make_family",
    "family_names",
]


# --------------------------------------------------------------------------- #
# deterministic families
# --------------------------------------------------------------------------- #
def empty_graph(n: int) -> DynamicGraph:
    """Graph with ``n`` nodes and no edges."""
    return DynamicGraph(n)


def path_graph(n: int) -> DynamicGraph:
    """Path ``0 - 1 - ... - (n-1)``; the canonical sparse, high-diameter start."""
    if n < 1:
        raise ValueError("path graph needs at least 1 node")
    return DynamicGraph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> DynamicGraph:
    """Cycle on ``n >= 3`` nodes."""
    if n < 3:
        raise ValueError("cycle graph needs at least 3 nodes")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return DynamicGraph(n, edges)


def star_graph(n: int) -> DynamicGraph:
    """Star with centre 0 and ``n - 1`` leaves (minimum degree 1, diameter 2)."""
    if n < 2:
        raise ValueError("star graph needs at least 2 nodes")
    return DynamicGraph(n, ((0, i) for i in range(1, n)))


def complete_graph(n: int) -> DynamicGraph:
    """Complete graph K_n — the absorbing state of the undirected processes."""
    if n < 1:
        raise ValueError("complete graph needs at least 1 node")
    return DynamicGraph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_bipartite_graph(a: int, b: int) -> DynamicGraph:
    """Complete bipartite graph K_{a,b} with parts ``0..a-1`` and ``a..a+b-1``."""
    if a < 1 or b < 1:
        raise ValueError("both parts must be non-empty")
    n = a + b
    return DynamicGraph(n, ((u, a + v) for u in range(a) for v in range(b)))


def grid_graph(rows: int, cols: int) -> DynamicGraph:
    """2D grid with ``rows * cols`` nodes, 4-neighbour connectivity."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    n = rows * cols

    def node(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((node(r, c), node(r, c + 1)))
            if r + 1 < rows:
                edges.append((node(r, c), node(r + 1, c)))
    return DynamicGraph(n, edges)


def hypercube_graph(dim: int) -> DynamicGraph:
    """Boolean hypercube of dimension ``dim`` (``2**dim`` nodes)."""
    if dim < 0:
        raise ValueError("dimension must be non-negative")
    n = 1 << dim
    edges = []
    for u in range(n):
        for bit in range(dim):
            v = u ^ (1 << bit)
            if u < v:
                edges.append((u, v))
    return DynamicGraph(n, edges)


def binary_tree_graph(n: int) -> DynamicGraph:
    """Complete-ish binary tree on ``n`` nodes (node i's parent is (i-1)//2)."""
    if n < 1:
        raise ValueError("binary tree needs at least 1 node")
    return DynamicGraph(n, ((i, (i - 1) // 2) for i in range(1, n)))


def caterpillar_graph(spine: int, legs_per_node: int) -> DynamicGraph:
    """Caterpillar: a spine path with ``legs_per_node`` pendant leaves per spine node."""
    if spine < 1 or legs_per_node < 0:
        raise ValueError("spine must be positive and legs_per_node non-negative")
    n = spine * (1 + legs_per_node)
    edges = [(i, i + 1) for i in range(spine - 1)]
    next_leaf = spine
    for s in range(spine):
        for _ in range(legs_per_node):
            edges.append((s, next_leaf))
            next_leaf += 1
    return DynamicGraph(n, edges)


def lollipop_graph(clique_size: int, path_length: int) -> DynamicGraph:
    """Lollipop: K_{clique_size} with a path of ``path_length`` extra nodes attached."""
    if clique_size < 1 or path_length < 0:
        raise ValueError("clique_size must be >= 1 and path_length >= 0")
    n = clique_size + path_length
    edges = [(u, v) for u in range(clique_size) for v in range(u + 1, clique_size)]
    prev = clique_size - 1
    for i in range(clique_size, n):
        edges.append((prev, i))
        prev = i
    return DynamicGraph(n, edges)


def barbell_graph(clique_size: int, path_length: int) -> DynamicGraph:
    """Two cliques of ``clique_size`` joined by a path of ``path_length`` nodes."""
    if clique_size < 1 or path_length < 0:
        raise ValueError("clique_size must be >= 1 and path_length >= 0")
    n = 2 * clique_size + path_length
    edges = [(u, v) for u in range(clique_size) for v in range(u + 1, clique_size)]
    second = list(range(clique_size + path_length, n))
    edges.extend((u, v) for i, u in enumerate(second) for v in second[i + 1:])
    chain = [clique_size - 1] + list(range(clique_size, clique_size + path_length)) + [second[0]]
    edges.extend(zip(chain[:-1], chain[1:]))
    return DynamicGraph(n, edges)


def wheel_graph(n: int) -> DynamicGraph:
    """Wheel: a cycle on nodes ``1..n-1`` all connected to hub 0 (``n >= 4``)."""
    if n < 4:
        raise ValueError("wheel graph needs at least 4 nodes")
    edges = [(0, i) for i in range(1, n)]
    rim = list(range(1, n))
    edges.extend((rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim)))
    return DynamicGraph(n, edges)


def double_star_graph(a: int, b: int) -> DynamicGraph:
    """Two star centres joined by an edge, with ``a`` and ``b`` leaves respectively."""
    if a < 0 or b < 0:
        raise ValueError("leaf counts must be non-negative")
    n = 2 + a + b
    edges = [(0, 1)]
    edges.extend((0, 2 + i) for i in range(a))
    edges.extend((1, 2 + a + i) for i in range(b))
    return DynamicGraph(n, edges)


# --------------------------------------------------------------------------- #
# paper Figure 1(c): the non-monotone example
# --------------------------------------------------------------------------- #
def fig1c_nonmonotone() -> DynamicGraph:
    """The 4-edge graph of Figure 1(c): a triangle with a pendant edge (the "paw").

    The figure's caption states that the expected convergence time for the
    4-edge graph exceeds that for its 3-edge subgraph.  The 3-edge subgraph
    is the triangle (:func:`fig1c_triangle_subgraph`), which is already a
    complete graph on its own node set and therefore converges in 0 rounds,
    whereas the 4-edge paw takes a positive expected number of rounds —
    adding an edge (and a node it brings along) *increased* the convergence
    time.  Nodes: triangle {1, 2, 3} plus pendant node 0 attached to 1.
    """
    return DynamicGraph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])


def fig1c_triangle_subgraph() -> DynamicGraph:
    """The 3-edge triangle subgraph of :func:`fig1c_nonmonotone` (already complete)."""
    return DynamicGraph(3, [(0, 1), (1, 2), (0, 2)])


def fig1c_path_subgraph() -> DynamicGraph:
    """The 3-edge spanning path subgraph of :func:`fig1c_nonmonotone`.

    Kept for completeness: the path 0-1-2-3 (relabelled from the paw's
    0-1, 1-2, 2-3 edges) is the spanning 3-edge subgraph; its expected
    convergence time is *larger* than the paw's, illustrating the opposite
    direction of the same phenomenon (removing an edge can also slow the
    process down).
    """
    return DynamicGraph(4, [(0, 1), (1, 2), (2, 3)])


def nonmonotone_supergraph_pair() -> Tuple[DynamicGraph, DynamicGraph]:
    """A strict same-node-set non-monotone pair: the 4-cycle and the diamond.

    Returns ``(sparser, denser)`` where ``denser`` is the sparser graph plus
    one extra edge (the diamond ``C_4`` + chord), yet the *denser* graph has
    a strictly larger expected triangulation convergence time (≈2.53 vs
    ≈2.08 rounds, exactly computable).  This is the strongest form of the
    non-monotonicity that Figure 1(c) illustrates: adding an edge to a
    graph on the same node set slows the process down.
    """
    sparser = DynamicGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    denser = DynamicGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    return sparser, denser


# --------------------------------------------------------------------------- #
# random families
# --------------------------------------------------------------------------- #
def _ensure_rng(
    rng: Union[np.random.Generator, np.random.SeedSequence, int, None],
) -> np.random.Generator:
    """Coerce an explicit seed source to a ``Generator``; reject ``None``.

    Random families feed seeded experiment traces, so an unseeded fallback
    here would silently void replayability (the ``determinism`` rule of
    ``tests/test_source_rules.py`` bans one anywhere in the tree).  Callers
    that genuinely want fresh entropy must say so: ``default_rng(None)`` at
    the call site.
    """
    if rng is None:
        raise ValueError(
            "random graph families require an explicit rng (np.random."
            "Generator, SeedSequence or integer seed); an unseeded graph "
            "cannot be replayed"
        )
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def erdos_renyi_graph(
    n: int,
    p: float,
    rng: Optional[np.random.Generator] = None,
    ensure_connected: bool = False,
) -> DynamicGraph:
    """Erdős–Rényi G(n, p).

    With ``ensure_connected=True`` a uniform spanning-path over a random
    permutation is added first so the result is always connected (the
    paper's processes assume a connected start); the extra edges do not
    change the asymptotic density for ``p >= 2 ln n / n``.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = _ensure_rng(rng)
    g = DynamicGraph(n)
    if ensure_connected and n > 1:
        perm = rng.permutation(n)
        for i in range(n - 1):
            g.add_edge(int(perm[i]), int(perm[i + 1]))
    if p > 0.0 and n > 1:
        # Vectorised upper-triangle Bernoulli sampling.
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(iu.shape[0]) < p
        for u, v in zip(iu[mask].tolist(), ju[mask].tolist()):
            g.add_edge(u, v)
    return g


def gnm_random_graph(
    n: int,
    m: int,
    rng: Optional[np.random.Generator] = None,
    ensure_connected: bool = False,
) -> DynamicGraph:
    """Uniform random graph with exactly ``m`` edges (plus a spanning tree if requested)."""
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise ValueError(f"m={m} exceeds the maximum {max_edges} for n={n}")
    rng = _ensure_rng(rng)
    g = DynamicGraph(n)
    if ensure_connected and n > 1:
        g = random_tree(n, rng)
    while g.number_of_edges() < max(m, g.number_of_edges()):
        if g.number_of_edges() >= m:
            break
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u != v:
            g.add_edge(u, v)
    return g


def random_tree(n: int, rng: Optional[np.random.Generator] = None) -> DynamicGraph:
    """Uniform-ish random labelled tree via random attachment (random recursive tree)."""
    if n < 1:
        raise ValueError("tree needs at least 1 node")
    rng = _ensure_rng(rng)
    g = DynamicGraph(n)
    for v in range(1, n):
        parent = int(rng.integers(v))
        g.add_edge(parent, v)
    return g


def barabasi_albert_graph(
    n: int, m: int, rng: Optional[np.random.Generator] = None
) -> DynamicGraph:
    """Barabási–Albert preferential attachment with ``m`` edges per new node.

    Used as the synthetic "social network" family in the evolution
    experiments (scale-free degree distribution).
    """
    if m < 1 or m >= n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = _ensure_rng(rng)
    g = DynamicGraph(n)
    # Start from a star on the first m + 1 nodes so every node has degree >= 1.
    targets: List[int] = []
    for v in range(1, m + 1):
        g.add_edge(0, v)
        targets.extend([0, v])
    for v in range(m + 1, n):
        chosen: set = set()
        while len(chosen) < m:
            # Preferential attachment: sample an endpoint of a uniform edge stub.
            pick = targets[int(rng.integers(len(targets)))]
            chosen.add(pick)
        for t in chosen:
            g.add_edge(v, t)
            targets.extend([v, t])
    return g


def watts_strogatz_graph(
    n: int, k: int, p: float, rng: Optional[np.random.Generator] = None
) -> DynamicGraph:
    """Watts–Strogatz small-world graph (ring lattice with rewiring probability ``p``).

    Rewiring never disconnects the original lattice here: instead of
    deleting, a rewired edge is *added* to a random target (the discovery
    processes only care about the starting edge set being connected, and
    keeping the lattice intact avoids pathological disconnections).
    """
    if k < 2 or k % 2 != 0:
        raise ValueError("k must be an even integer >= 2")
    if k >= n:
        raise ValueError("k must be < n")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must be in [0, 1]")
    rng = _ensure_rng(rng)
    g = DynamicGraph(n)
    for u in range(n):
        for offset in range(1, k // 2 + 1):
            g.add_edge(u, (u + offset) % n)
    if p > 0:
        for u in range(n):
            for offset in range(1, k // 2 + 1):
                if rng.random() < p:
                    w = int(rng.integers(n))
                    if w != u:
                        g.add_edge(u, w)
    return g


def random_regular_graph(
    n: int, d: int, rng: Optional[np.random.Generator] = None, max_tries: int = 100
) -> DynamicGraph:
    """Random ``d``-regular graph via the configuration model with retries.

    Falls back to raising ``RuntimeError`` if a simple ``d``-regular graph
    is not found within ``max_tries`` attempts (vanishingly unlikely for
    the small degrees used in experiments).
    """
    if n * d % 2 != 0:
        raise ValueError("n * d must be even for a d-regular graph to exist")
    if d >= n:
        raise ValueError("d must be < n")
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = _ensure_rng(rng)
    for _ in range(max_tries):
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        g = DynamicGraph(n)
        ok = True
        for u, v in pairs.tolist():
            if u == v or g.has_edge(u, v):
                ok = False
                break
            g.add_edge(u, v)
        if ok:
            return g
    raise RuntimeError(f"failed to build a simple {d}-regular graph in {max_tries} tries")


def random_connected_graph(
    n: int, extra_edge_prob: float = 0.05, rng: Optional[np.random.Generator] = None
) -> DynamicGraph:
    """A random tree plus independent extra edges — a generic connected test graph."""
    rng = _ensure_rng(rng)
    g = random_tree(n, rng)
    if extra_edge_prob > 0 and n > 2:
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(iu.shape[0]) < extra_edge_prob
        for u, v in zip(iu[mask].tolist(), ju[mask].tolist()):
            g.add_edge(u, v)
    return g


def complete_minus_matching(n: int, k: int) -> DynamicGraph:
    """Complete graph with a matching of ``k`` disjoint edges removed.

    This is the dense starting point of the lower-bound experiments
    (Theorem 9/13: ``k`` missing edges force Ω(n log k) rounds).
    """
    if k > n // 2:
        raise ValueError(f"a matching of size {k} does not fit in {n} nodes")
    g = complete_graph(n)
    removed = {(2 * i, 2 * i + 1) for i in range(k)}
    out = DynamicGraph(n)
    for u, v in g.edges():
        if (u, v) not in removed:
            out.add_edge(u, v)
    return out


def complete_minus_random_edges(
    n: int, k: int, rng: Optional[np.random.Generator] = None
) -> DynamicGraph:
    """Complete graph with ``k`` uniformly random edges removed (kept connected by construction
    for ``k <= n(n-1)/2 - (n-1)`` with overwhelming probability; validated by callers)."""
    max_edges = n * (n - 1) // 2
    if k > max_edges:
        raise ValueError("cannot remove more edges than exist")
    rng = _ensure_rng(rng)
    all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    remove_idx = set(rng.choice(len(all_edges), size=k, replace=False).tolist())
    g = DynamicGraph(n)
    for i, (u, v) in enumerate(all_edges):
        if i not in remove_idx:
            g.add_edge(u, v)
    return g


# --------------------------------------------------------------------------- #
# family registry — used by the experiment sweeps and the CLI
# --------------------------------------------------------------------------- #
def _er_connected(n: int, rng: Optional[np.random.Generator] = None) -> DynamicGraph:
    # Density 2 ln n / n keeps G(n, p) connected w.h.p.; the spanning path
    # backstop guarantees it for the small n used in tests.
    p = min(1.0, 2.0 * math.log(max(n, 2)) / max(n, 2))
    return erdos_renyi_graph(n, p, rng=rng, ensure_connected=True)


def _ba(n: int, rng: Optional[np.random.Generator] = None) -> DynamicGraph:
    return barabasi_albert_graph(n, m=min(3, max(1, n - 1)), rng=rng)


def _ws(n: int, rng: Optional[np.random.Generator] = None) -> DynamicGraph:
    k = 4 if n > 4 else 2
    return watts_strogatz_graph(n, k=k, p=0.1, rng=rng)


def _tree(n: int, rng: Optional[np.random.Generator] = None) -> DynamicGraph:
    return random_tree(n, rng)


def _path(n: int, rng: Optional[np.random.Generator] = None) -> DynamicGraph:
    return path_graph(n)


def _cycle(n: int, rng: Optional[np.random.Generator] = None) -> DynamicGraph:
    return cycle_graph(n)


def _star(n: int, rng: Optional[np.random.Generator] = None) -> DynamicGraph:
    return star_graph(n)


def _lollipop(n: int, rng: Optional[np.random.Generator] = None) -> DynamicGraph:
    clique = max(3, n // 2)
    return lollipop_graph(clique, n - clique)


def _grid(n: int, rng: Optional[np.random.Generator] = None) -> DynamicGraph:
    side = max(2, int(round(math.sqrt(n))))
    return grid_graph(side, side)


def _binary_tree(n: int, rng: Optional[np.random.Generator] = None) -> DynamicGraph:
    return binary_tree_graph(n)


#: Mapping from family name to a ``(n, rng) -> DynamicGraph`` factory.
#: ``grid`` rounds ``n`` to the nearest square.
FAMILY_REGISTRY: Dict[str, Callable[[int, Optional[np.random.Generator]], DynamicGraph]] = {
    "path": _path,
    "cycle": _cycle,
    "star": _star,
    "binary_tree": _binary_tree,
    "random_tree": _tree,
    "lollipop": _lollipop,
    "grid": _grid,
    "erdos_renyi": _er_connected,
    "barabasi_albert": _ba,
    "watts_strogatz": _ws,
}


def family_names() -> List[str]:
    """Names of all registered graph families."""
    return sorted(FAMILY_REGISTRY)


def make_family(
    name: str, n: int, rng: Optional[np.random.Generator] = None
) -> DynamicGraph:
    """Instantiate the registered family ``name`` at (approximately) ``n`` nodes."""
    try:
        factory = FAMILY_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown graph family {name!r}; known: {family_names()}") from None
    return factory(n, rng)
