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
* :func:`payload_chunks` — the runs of messages a round expands at once,
  each run's padded payload block at most
  :data:`~repro.graphs.array_adjacency.CHUNK` entries, so a round's
  temporaries stay a fixed size however many IDs its messages carry;
* :func:`insert_taught_edges` / :class:`PayloadProposals` — the
  synchronous round of Name Dropper and pointer jump, whose work grows
  with what each message *teaches* its learner, and the full proposal
  list, rebuilt from the rows only when read.

Chunking is exact.  Rows only grow at their end, so the first
``counts[i]`` entries of a source's row are its round-start payload
whenever a chunk reads them, and the inserts of the chunks, in message
order, add the edges one insert of the whole round would add, in the
same order (:meth:`~repro.graphs.array_adjacency.ArrayGraph.add_edges_batch_arrays`).
A growing insert reallocates the row block, so each chunk reads the rows
afresh.
"""

from __future__ import annotations

from typing import Any, Iterator, List, NamedTuple, Tuple

import numpy as np

from repro.graphs import array_adjacency, bitset
from repro.graphs.array_adjacency import ArrayGraph, EdgeArrays

__all__ = [
    "require_undirected",
    "packed_rows",
    "concat_rows",
    "rows_with_self",
    "payload_chunks",
    "insert_taught_edges",
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
        return np.empty(0, dtype=rows.dtype)
    width = int(counts.max())
    if width == 0:
        return np.empty(0, dtype=rows.dtype)
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


def payload_chunks(counts: np.ndarray) -> Iterator[slice]:
    """Consecutive runs of messages whose padded payload block fits in a chunk.

    Messages ``i .. j-1`` expand through a ``(j − i) × max(counts[i:j])``
    block in :func:`concat_rows`.  Each run is the longest one from its
    start whose block holds at most
    :data:`~repro.graphs.array_adjacency.CHUNK` entries, and one message
    at least, however wide.
    """
    chunk = array_adjacency.CHUNK
    start, k = 0, counts.shape[0]
    while start < k:
        window = counts[start : start + chunk]
        block = np.maximum.accumulate(window) * np.arange(1, window.shape[0] + 1)
        stop = start + max(1, int(np.searchsorted(block, chunk, side="right")))
        yield slice(start, stop)
        start = stop


def insert_taught_edges(
    graph, learners: np.ndarray, sources: np.ndarray, counts: np.ndarray
) -> EdgeArrays:
    """Insert every edge ``(learners[i], w)`` that message ``i`` teaches; return the new ones.

    Message ``i`` carries the first ``counts[i]`` IDs of ``sources[i]``'s
    row to ``learners[i]``.  Its *teach row* is that packed row minus the
    learner's row and the learner's own bit, taken before anything is
    inserted; all of them form one ``(k, W)`` block, at most n²/8 bytes.
    Messages with an empty teach row are skipped.  The others are
    expanded and inserted one :func:`payload_chunks` run at a time, in
    message order, and keep an ID only if its bit is set in their own
    teach row.  The inserts see the full ``(learner, ID)`` stream minus
    its self edges and round-start edges, in stream order, so they add
    the same edges in the same order as one insert of the full stream.
    """
    bits = graph.adjacency_bits()
    teach = bits[sources]
    teach &= ~bits[learners]
    bitset.clear_bits(teach, np.arange(learners.shape[0], dtype=np.int64), learners)
    live = np.flatnonzero(teach.any(axis=1))
    counts = counts[live]
    added = []
    for part in payload_chunks(counts):
        rows = packed_rows(graph)[0]
        taught = _taught(rows, teach, learners, sources, live[part], counts[part])
        added.append(graph.add_edges_batch_arrays(*taught))
    return EdgeArrays.concat(added)


def _taught(
    rows: np.ndarray,
    teach: np.ndarray,
    learners: np.ndarray,
    sources: np.ndarray,
    msgs: np.ndarray,
    counts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(learner, ID)`` of every ID that messages ``msgs`` teach, in payload order.

    A function of its own, so the expanded payload is freed before the
    insert allocates its temporaries.
    """
    ids = concat_rows(rows, sources[msgs], counts)
    msg = np.repeat(msgs, counts)
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
