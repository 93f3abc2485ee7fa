"""Test oracle: a list-of-lists graph and per-node reference rounds of every process.

The processes run on :class:`~repro.graphs.array_adjacency.ArrayGraph` /
``ArrayDiGraph`` with vectorized kernels: a round's uniforms come from one
``rng.random((2, m))`` block, payloads expand through packed teach rows,
and new edges go in through one batched insert.  This module replays the
same processes the slow, obvious way, so a test can check the kernels
draw for draw:

* :class:`ListGraph` keeps one Python list per node plus an edge set and
  inserts edge by edge; :meth:`ListGraph.sample` draws ``rng.random(m)``
  per sampling stage and maps it through
  :func:`repro.graphs.sampling.uniform_indices`;
* :func:`run_oracle` runs a process by registry name round by round,
  synchronous or sequential, with the per-node payload loops of the
  three baselines.

Given a graph with the same neighbour rows and the same seed, a process
and its oracle must agree on every round's proposals, new edges (in
order), messages and bits, and on the final rows and generator state.

:func:`check_graph_invariants` and :func:`check_digraph_invariants` list
what is inconsistent inside an array graph (rows, counters and membership
bits disagreeing), so a test can assert a mutated graph is still sound.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.core.base import id_bits
from repro.graphs.closure import reachability_matrix_bfs
from repro.graphs.sampling import masked_counts, uniform_indices

Edge = Tuple[int, int]

#: messages per participating node of the gossip processes
GOSSIP_MESSAGES = {"push": 2, "faulty_push": 2, "pull": 3, "faulty_pull": 3, "directed_pull": 3}


class ListGraph:
    """A simple graph as per-node Python lists plus an edge set, edges added one by one."""

    def __init__(self, n: int, edges=(), directed: bool = False) -> None:
        self.n = n
        self.directed = directed
        self.rows: List[List[int]] = [[] for _ in range(n)]
        self.edge_set: Set[Edge] = set()
        for u, v in edges:
            self.add_edge(u, v)

    @classmethod
    def of(cls, graph) -> "ListGraph":
        """A copy of an array graph, every (out-)neighbour row in the same order."""
        g = cls(graph.n, directed=graph.directed)
        rows_of = graph.out_neighbors if graph.directed else graph.neighbors
        g.rows = [rows_of(u).tolist() for u in range(graph.n)]
        g.edge_set = {g._key(u, v) for u in range(graph.n) for v in g.rows[u]}
        return g

    def _key(self, u: int, v: int) -> Edge:
        return (u, v) if self.directed or u < v else (v, u)

    def out_neighbors(self, u: int) -> List[int]:
        return self.rows[u]

    def add_edge(self, u, v) -> bool:
        u, v = int(u), int(v)
        key = self._key(u, v)
        if u == v or key in self.edge_set:
            return False
        self.edge_set.add(key)
        self.rows[u].append(v)
        if not self.directed:
            self.rows[v].append(u)
        return True

    def sample(self, nodes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One neighbour per node from ``rng.random(len(nodes))``; ``-1`` for a ``-1`` node or an empty row."""
        degrees = np.array([len(row) for row in self.rows], dtype=np.int64)
        safe, counts = masked_counts(nodes, degrees)
        idx = uniform_indices(rng.random(nodes.shape[0]), counts)
        picked = [self.rows[u][i] if i >= 0 else -1 for u, i in zip(safe.tolist(), idx.tolist())]
        return np.array(picked, dtype=np.int64)

    def pick(self, u: int, rng: np.random.Generator) -> int:
        """One neighbour of ``u`` from a scalar ``rng.integers`` draw (the sequential path)."""
        return self.rows[u][int(rng.integers(len(self.rows[u])))]

    def edge_list(self) -> List[Edge]:
        return sorted(self.edge_set)


class OracleRound(NamedTuple):
    proposed: List[Edge]
    added: List[Edge]
    messages: int
    bits: int


def _apply(g: ListGraph, proposed: List[Edge]) -> List[Edge]:
    return [(u, v) for u, v in proposed if g.add_edge(u, v)]


def _gossip_sync(name, g, rng, nodes, without_replacement, failure_prob) -> List[Edge]:
    """One synchronous round's proposals of push, pull or the directed walk, stage by stage."""
    m = nodes.shape[0]
    if name.endswith("push") and without_replacement:
        deg = np.array([len(g.rows[u]) for u in nodes.tolist()], dtype=np.int64)
        i = uniform_indices(rng.random(m), deg)
        j = uniform_indices(rng.random(m), deg - 1)
        j = np.where(j >= i, j + 1, j)
        valid = deg >= 2
        pairs = [
            (g.rows[u][a], g.rows[u][b]) if ok else None
            for u, a, b, ok in zip(nodes.tolist(), i.tolist(), j.tolist(), valid.tolist())
        ]
    elif name.endswith("push"):
        vs, ws = g.sample(nodes, rng), g.sample(nodes, rng)
        pairs = [(v, w) if v != w else None for v, w in zip(vs.tolist(), ws.tolist())]
    else:
        vs = g.sample(nodes, rng)
        ws = g.sample(vs, rng)
        pairs = [(u, w) if w >= 0 and w != u else None for u, w in zip(nodes.tolist(), ws.tolist())]
    if failure_prob > 0.0 and m:
        fails = rng.random(m) < failure_prob
        pairs = [None if lost else pair for pair, lost in zip(pairs, fails.tolist())]
    return [pair for pair in pairs if pair is not None]


def _gossip_propose(name, g, rng, u, without_replacement, failure_prob) -> Optional[Edge]:
    """One node's proposal from scalar draws on the evolving graph (the sequential path)."""
    row = g.rows[u]
    if not row:
        return None
    if name.endswith("push"):
        k = len(row)
        if without_replacement and k >= 2:
            i = int(rng.integers(k))
            j = int(rng.integers(k - 1))
            edge = (row[i], row[j + 1 if j >= i else j])
        else:
            v, w = row[int(rng.integers(k))], row[int(rng.integers(k))]
            edge = None if v == w else (v, w)
        if edge is not None and failure_prob > 0.0 and float(rng.random()) < failure_prob:
            return None
        return edge
    v = g.pick(u, rng)
    if not g.rows[v]:
        return None
    w = g.pick(v, rng)
    edge = None if w == u else (u, w)
    if edge is not None and failure_prob > 0.0 and float(rng.random()) < failure_prob:
        return None
    return edge


def _payload_round(name, g, rng, nodes, sequential, bits_per_id) -> OracleRound:
    """A baseline round: every message's payload delivered ID by ID."""
    proposed: List[Edge] = []
    added: List[Edge] = []
    messages = bits = 0
    if name == "flooding":
        deliveries = [(v, g.rows[u] + [u]) for u in nodes.tolist() for v in g.rows[u]]
        actions = [(v, v, payload, 1, len(payload)) for v, payload in deliveries]
    elif sequential:
        actions = []
    else:
        targets = g.sample(nodes, rng)
        actions = [
            _payload_action(name, g, u, v) for u, v in zip(nodes.tolist(), targets.tolist()) if v >= 0
        ]
    if sequential and name != "flooding":
        for u in nodes.tolist():
            if not g.rows[u]:
                continue
            messages, bits = _deliver(
                g, _payload_action(name, g, u, g.pick(u, rng)), proposed, added, messages, bits, bits_per_id
            )
    for action in actions:
        messages, bits = _deliver(g, action, proposed, added, messages, bits, bits_per_id)
    return OracleRound(proposed, added, messages, bits)


def _payload_action(name, g, u, v):
    """``(learner, skipped ID, payload, messages, IDs charged)`` for ``u`` acting on target ``v``."""
    if name == "name_dropper":
        payload = g.rows[u] + [u]
        return v, v, payload, 1, len(payload)
    payload = list(g.rows[v])
    return u, u, payload, 2, 1 + len(payload)


def _deliver(g, action, proposed, added, messages, bits, bits_per_id):
    learner, skip, payload, count, ids = action
    for w in payload:
        if w != skip:
            proposed.append((learner, w))
            if g.add_edge(learner, w):
                added.append((learner, w))
    return messages + count, bits + ids * bits_per_id


def run_oracle(
    name: str,
    graph,
    seed: int,
    max_rounds: int,
    sequential: bool = False,
    without_replacement: bool = False,
    failure_prob: float = 0.0,
    participation_prob: float = 1.0,
    schedule=None,
):
    """Replay process ``name`` (a registry name) from ``graph``'s rows and ``seed``.

    Runs until the process's absorbing state (the complete graph, or the
    transitive closure of the start for directed graphs) or ``max_rounds``
    rounds.  A ``schedule`` (an :class:`~repro.core.scheduler.ActivationSchedule`)
    picks each round's acting nodes, drawing from the same generator.
    Returns the per-round :class:`OracleRound` list, the final
    :class:`ListGraph` and the generator.
    """
    g = ListGraph.of(graph)
    rng = np.random.default_rng(seed)
    bits_per_id = id_bits(g.n)
    if g.directed:
        reach = reachability_matrix_bfs(g)
        np.fill_diagonal(reach, False)
        target = set(zip(*(axis.tolist() for axis in np.nonzero(reach))))
        done = lambda: target <= g.edge_set  # noqa: E731
    else:
        done = lambda: len(g.edge_set) == g.n * (g.n - 1) // 2  # noqa: E731
    history: List[OracleRound] = []
    while not done() and len(history) < max_rounds:
        if schedule is not None:
            nodes = np.array(list(schedule.active_nodes(g.n, len(history), rng)), dtype=np.int64)
        elif participation_prob < 1.0:
            nodes = np.flatnonzero(rng.random(g.n) < participation_prob)
        else:
            nodes = np.arange(g.n, dtype=np.int64)
        if name not in GOSSIP_MESSAGES:
            history.append(_payload_round(name, g, rng, nodes, sequential, bits_per_id))
            continue
        messages = GOSSIP_MESSAGES[name] * nodes.shape[0]
        if sequential:
            proposed, added = [], []
            for u in nodes.tolist():
                edge = _gossip_propose(name, g, rng, u, without_replacement, failure_prob)
                if edge is not None:
                    proposed.append(edge)
                    if g.add_edge(*edge):
                        added.append(edge)
        else:
            proposed = _gossip_sync(name, g, rng, nodes, without_replacement, failure_prob)
            added = _apply(g, proposed)
        history.append(OracleRound(proposed, added, messages, messages * bits_per_id))
    return history, g, rng


def check_graph_invariants(graph) -> List[str]:
    """Invariant violations of an undirected array graph; empty when consistent.

    Checks: neighbour rows symmetric and duplicate-free, no self loops,
    degree counters equal to row lengths, every row entry in the
    membership bits, and the edge counter equal to the distinct edges.
    """
    problems: List[str] = []
    seen_edges = set()
    for u in graph.nodes():
        nbrs = list(graph.neighbors(u))
        if len(set(nbrs)) != len(nbrs):
            problems.append(f"node {u} has duplicate entries in its neighbor list")
        if u in nbrs:
            problems.append(f"node {u} has a self loop")
        if graph.degree(u) != len(nbrs):
            problems.append(
                f"node {u}: degree counter {graph.degree(u)} != list length {len(nbrs)}"
            )
        for v in nbrs:
            if u not in graph.neighbors(v):
                problems.append(f"edge ({u}, {v}) present at {u} but not mirrored at {v}")
            if not graph.has_edge(u, v):
                problems.append(f"edge ({u}, {v}) in list but missing from edge set")
            seen_edges.add((min(u, v), max(u, v)))
    if len(seen_edges) != graph.number_of_edges():
        problems.append(
            f"edge counter {graph.number_of_edges()} != distinct edges seen {len(seen_edges)}"
        )
    return problems


def check_digraph_invariants(graph) -> List[str]:
    """Invariant violations of a directed array graph; empty when consistent."""
    problems: List[str] = []
    seen_edges = set()
    total_out = 0
    for u in graph.nodes():
        nbrs = list(graph.out_neighbors(u))
        if len(set(nbrs)) != len(nbrs):
            problems.append(f"node {u} has duplicate out-neighbors")
        if u in nbrs:
            problems.append(f"node {u} has a self loop")
        if graph.out_degree(u) != len(nbrs):
            problems.append(
                f"node {u}: out-degree counter {graph.out_degree(u)} != list length {len(nbrs)}"
            )
        total_out += len(nbrs)
        for v in nbrs:
            if not graph.has_edge(u, v):
                problems.append(f"edge ({u}, {v}) in out-list but missing from edge set")
            seen_edges.add((u, v))
    if len(seen_edges) != graph.number_of_edges():
        problems.append(
            f"edge counter {graph.number_of_edges()} != distinct edges seen {len(seen_edges)}"
        )
    in_sum = int(graph.in_degrees().sum())
    if in_sum != total_out:
        problems.append(f"sum of in-degrees {in_sum} != sum of out-degrees {total_out}")
    return problems
