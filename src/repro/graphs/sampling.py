"""Bulk-sampling primitives: how one uniform becomes one neighbour.

Every sampled node costs one uniform float, turned into a neighbour index
with the exact floating-point computation implemented here, so a seed
maps to one sequence of choices however the draws are shaped.  The
gossip kernels draw a whole round's uniforms as one block —
``rng.random((2, m))`` for two sampling stages over ``m`` nodes — and
hand row ``s`` to stage ``s``.  NumPy fills the block in order from the
same stream that one ``rng.random(m)`` per stage would read, so the two
shapes see the same values (``tests/test_draw_budget.py`` pins this, and
``tests/test_backend_equivalence.py`` checks the kernels against an
oracle that draws stage by stage).

The helpers use ``-1`` as the sentinel for "no sample" (a node with no
neighbours, or a ``-1`` node propagated from an earlier sampling stage),
which lets multi-hop kernels chain calls without branching.
"""

from __future__ import annotations

import numpy as np

__all__ = ["uniform_indices", "masked_counts"]


def uniform_indices(u: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Map uniforms ``u ∈ [0, 1)`` to indices ``floor(u·counts)`` per element.

    Returns an ``int64`` array with ``-1`` wherever ``counts <= 0``.  The
    result is clipped to ``counts - 1`` so the (measure-zero, but real in
    floating point) case ``u·k`` rounding up to ``k`` cannot produce an
    out-of-range index.  Every sampling path uses this exact computation
    so identical draws yield identical choices.
    """
    counts = np.asarray(counts, dtype=np.int64)
    idx = (np.asarray(u) * counts).astype(np.int64)
    return np.minimum(idx, counts - 1)


def masked_counts(nodes: np.ndarray, counts_by_node: np.ndarray) -> tuple:
    """Per-node counts with ``-1`` nodes treated as count 0.

    Returns ``(safe_nodes, counts)`` where ``safe_nodes`` replaces negative
    entries with 0 (a valid index whose gathered value is discarded) and
    ``counts`` is 0 for those entries, so :func:`uniform_indices` yields the
    ``-1`` sentinel for them.
    """
    valid = nodes >= 0
    safe = np.where(valid, nodes, 0)
    counts = np.where(valid, counts_by_node[safe], 0)
    return safe, counts
