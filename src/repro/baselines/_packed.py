"""Shared backend plumbing for the baseline processes.

The baselines (Name Dropper, Random Pointer Jump, neighbourhood flooding)
ship whole neighbour sets per message, so their rounds are set-union work
rather than the single-edge proposals of the gossip processes.  This
module holds what all three share:

* :func:`require_undirected` — the capability check that replaced the old
  ``isinstance(graph, DynamicGraph)`` guards, so any graph speaking the
  undirected neighbour/membership protocol (list- or array-backed) is
  accepted;
* :func:`packed_rows` — the fast-path gate: graphs exposing padded
  neighbour rows plus word-packed membership rows (``ArrayGraph`` /
  ``ArrayDiGraph``) get the vectorized round kernels;
* :func:`concat_rows` / :func:`rows_with_self` — vectorized payload
  expansion: flatten the first ``counts[i]`` entries of the neighbour
  rows of a selection of nodes into one index array, preserving per-row
  insertion order exactly, which is what keeps packed rounds
  trace-identical to the per-node reference loops;
* :func:`taught_edges` / :class:`PayloadProposals` — the synchronous
  round of Name Dropper and pointer jump, whose work grows with what each
  message *teaches* its learner, and the full proposal list, rebuilt from
  the rows only when read.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.graphs import bitset

__all__ = [
    "require_undirected",
    "supports_undirected",
    "packed_rows",
    "concat_rows",
    "rows_with_self",
    "taught_edges",
    "PayloadProposals",
]

#: the methods every undirected baseline substrate must provide.
UNDIRECTED_PROTOCOL = ("neighbors", "random_neighbors", "add_edge", "has_edge", "is_complete")


def supports_undirected(graph) -> bool:
    """True when ``graph`` speaks the undirected neighbour/membership protocol.

    Capability-based: both :class:`~repro.graphs.adjacency.DynamicGraph`
    and :class:`~repro.graphs.array_adjacency.ArrayGraph` qualify; directed
    graphs and arbitrary objects do not.  This predicate (not an
    ``isinstance`` check against one backend class) is what recorders and
    simulators must gate on — a stale ``isinstance(graph, DynamicGraph)``
    guard silently no-ops on the array backend.
    """
    if getattr(graph, "directed", True):
        return False
    return all(callable(getattr(graph, name, None)) for name in UNDIRECTED_PROTOCOL)


def require_undirected(graph, who: str) -> None:
    """Raise ``TypeError`` unless ``graph`` is an undirected neighbour-protocol graph.

    The raising form of :func:`supports_undirected`, with a message naming
    the missing capabilities.
    """
    if getattr(graph, "directed", True):
        raise TypeError(f"{who} requires an undirected graph, got {type(graph).__name__}")
    missing = [name for name in UNDIRECTED_PROTOCOL if not callable(getattr(graph, name, None))]
    if missing:
        raise TypeError(
            f"{who} requires the undirected neighbour/membership protocol; "
            f"{type(graph).__name__} is missing {missing}"
        )


def packed_rows(graph) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Return ``(rows, degrees, bits)`` live views when ``graph`` supports them.

    ``None`` means the graph has no packed substrate and the caller should
    take its per-node reference path.  Works for both graph kinds: the
    undirected neighbour block or the directed out-neighbour block.
    """
    rows_fn = getattr(graph, "neighbor_rows", None) or getattr(graph, "out_neighbor_rows", None)
    bits_fn = getattr(graph, "adjacency_bits", None)
    if rows_fn is None or bits_fn is None:
        return None
    rows, deg = rows_fn()
    return rows, deg, bits_fn()


def concat_rows(rows: np.ndarray, sel: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``rows[s, :c]`` over ``(s, c)`` in ``zip(sel, counts)``, in order.

    Vectorized equivalent of
    ``[w for s, c in zip(sel, counts) for w in rows[s, :c]]`` — per-row
    insertion order is preserved, which the trace contract depends on.
    ``counts`` is usually ``deg[sel]``; an earlier round's degrees give
    that round's rows, because rows only ever grow at the end.
    """
    if sel.size == 0:
        return np.empty(0, dtype=np.int64)
    width = int(counts.max())
    if width == 0:
        return np.empty(0, dtype=np.int64)
    cols = np.arange(width, dtype=np.int64)
    return rows[sel, :width][cols[None, :] < counts[:, None]]


def rows_with_self(rows: np.ndarray, sel: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``rows[s, :c] + [s]`` over ``(s, c)`` in ``zip(sel, counts)``, in order.

    The Name Dropper payload shape ("every ID I know, then my own"): the
    flattened result lists each selected node's neighbours in insertion
    order followed by the node itself.
    """
    if sel.size == 0:
        return np.empty(0, dtype=np.int64)
    width = int(counts.max())
    block = np.empty((sel.size, width + 1), dtype=np.int64)
    block[:, :width] = rows[sel, :width]
    block[np.arange(sel.size), counts] = sel
    mask = np.arange(width + 1, dtype=np.int64)[None, :] <= counts[:, None]
    return block[mask]


def taught_edges(
    rows: np.ndarray,
    bits: np.ndarray,
    learners: np.ndarray,
    sources: np.ndarray,
    counts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Endpoints ``(learners[i], w)`` of every edge that message ``i`` teaches, in payload order.

    Message ``i`` carries the first ``counts[i]`` IDs of ``sources[i]``'s
    row to ``learners[i]``.  Its *teach row* is that packed row minus the
    learner's row and the learner's own bit; all of them form one
    ``(k, W)`` block, at most n²/8 bytes.  Messages with an empty teach
    row are skipped, and the others keep an ID only if its bit is set in
    their own teach row.  The result is the full ``(learner, ID)`` stream
    minus its self edges and round-start edges, in stream order, so the
    batched insert adds the same edges in the same order as from the
    full stream.
    """
    teach = bits[sources] & ~bits[learners]
    bitset.clear_bits(teach, np.arange(learners.shape[0], dtype=np.int64), learners)
    live = np.flatnonzero(teach.any(axis=1))
    ids = concat_rows(rows, sources[live], counts[live])
    msg = np.repeat(live, counts[live])
    keep = bitset.get_bits(teach, msg, ids)
    return learners[msg[keep]], ids[keep]


class PayloadProposals(NamedTuple):
    """A payload round's proposals, as ``(learner, ID)`` tuples only when read.

    Every ID each message carries (plus the source's own when
    ``with_self``, Name Dropper's "then my own") paired with its learner,
    minus self edges.  Rows only ever grow at the end, so the first
    ``counts[i]`` entries of a source's row are its round-start payload
    however many rounds later :meth:`edges` runs.
    """

    graph: Any
    learners: np.ndarray
    sources: np.ndarray
    counts: np.ndarray
    with_self: bool

    def edges(self) -> List[Tuple[int, int]]:
        """The proposals as ``(learner, ID)`` tuples in message order."""
        rows = packed_rows(self.graph)[0]
        expand = rows_with_self if self.with_self else concat_rows
        ids = expand(rows, self.sources, self.counts)
        learners = np.repeat(self.learners, self.counts + int(self.with_self))
        keep = learners != ids
        return list(zip(learners[keep].tolist(), ids[keep].tolist()))
