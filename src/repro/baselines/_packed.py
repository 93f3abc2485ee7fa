"""Shared round plumbing for the baseline processes.

The baselines (Name Dropper, Random Pointer Jump, neighbourhood flooding)
ship whole neighbour sets per message, so their rounds are set-union work
rather than the single-edge proposals of the gossip processes.  This
module holds what all three share:

* :func:`require_undirected` — the graph check of the undirected
  baselines: an :class:`~repro.graphs.array_adjacency.ArrayGraph`;
* :func:`packed_rows` — the live views a packed round reads: padded
  (out-)neighbour rows, degrees and word-packed membership rows;
* :func:`concat_rows` / :func:`rows_with_self` — vectorized payload
  expansion: flatten the first ``counts[i]`` entries of the neighbour
  rows of a selection of nodes into one index array, preserving per-row
  insertion order exactly, which is what keeps packed rounds
  trace-identical to a per-node loop over the same payloads;
* :func:`taught_edges` / :class:`PayloadProposals` — the synchronous
  round of Name Dropper and pointer jump, whose work grows with what each
  message *teaches* its learner, and the full proposal list, rebuilt from
  the rows only when read.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Tuple

import numpy as np

from repro.graphs import bitset
from repro.graphs.array_adjacency import ArrayGraph

__all__ = [
    "require_undirected",
    "packed_rows",
    "concat_rows",
    "rows_with_self",
    "taught_edges",
    "PayloadProposals",
]


def require_undirected(graph, who: str) -> None:
    """Raise ``TypeError`` unless ``graph`` is an undirected :class:`ArrayGraph`."""
    if not isinstance(graph, ArrayGraph):
        raise TypeError(f"{who} requires an undirected graph, got {type(graph).__name__}")


def packed_rows(graph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, degrees, bits)`` live views of ``graph``.

    Works for both graph kinds: the undirected neighbour block or the
    directed out-neighbour block, plus the packed membership rows.
    """
    rows, deg = graph.out_neighbor_rows() if graph.directed else graph.neighbor_rows()
    return rows, deg, graph.adjacency_bits()


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
