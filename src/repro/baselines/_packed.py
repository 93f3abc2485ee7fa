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
  expansion: flatten the per-node neighbour rows of a selection of nodes
  into one index array, preserving per-row insertion order exactly, which
  is what keeps packed rounds trace-identical to the per-node reference
  loops.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "require_undirected",
    "supports_undirected",
    "packed_rows",
    "concat_rows",
    "rows_with_self",
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


def concat_rows(rows: np.ndarray, deg: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """Concatenate ``rows[s, :deg[s]]`` over ``s`` in ``sel``, in order.

    Vectorized equivalent of
    ``[w for s in sel for w in rows[s, :deg[s]]]`` — per-row insertion
    order is preserved, which the trace contract depends on.
    """
    sel = np.asarray(sel, dtype=np.int64)
    if sel.size == 0:
        return np.empty(0, dtype=np.int64)
    counts = deg[sel]
    width = int(counts.max())
    if width == 0:
        return np.empty(0, dtype=np.int64)
    cols = np.arange(width, dtype=np.int64)
    block = rows[sel[:, None], cols[None, :]]
    return block[cols[None, :] < counts[:, None]]


def rows_with_self(rows: np.ndarray, deg: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """Concatenate ``rows[s, :deg[s]] + [s]`` over ``s`` in ``sel``, in order.

    The Name Dropper payload shape ("every ID I know, then my own"): the
    flattened result lists each selected node's neighbours in insertion
    order followed by the node itself.
    """
    sel = np.asarray(sel, dtype=np.int64)
    if sel.size == 0:
        return np.empty(0, dtype=np.int64)
    counts = deg[sel]
    width = int(counts.max())
    block = np.empty((sel.size, width + 1), dtype=np.int64)
    if width:
        cols = np.arange(width, dtype=np.int64)
        block[:, :width] = rows[sel[:, None], cols[None, :]]
    block[np.arange(sel.size), counts] = sel
    mask = np.arange(width + 1, dtype=np.int64)[None, :] <= counts[:, None]
    return block[mask]
