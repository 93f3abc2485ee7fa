"""The per-round record of a discovery run.

:class:`MetricsRecorder` is a run-loop callback (the ``callbacks=``
argument of :meth:`DiscoveryProcess.run`) that appends one row per round
over :data:`COLUMNS`, reading the (out-)degrees from the graph's own
degree vector, and reads the rows back as columns.  Diameter and
clustering cost O(n·m) per snapshot, so they are not columns:
:class:`repro.social.evolution.EvolutionTracker` takes them at its own
cadence.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.base import DiscoveryProcess, RoundResult

__all__ = ["COLUMNS", "MetricsRecorder"]

#: the recorded columns, in row order.
COLUMNS = (
    "round_index",
    "num_edges",
    "edges_added",
    "min_degree",
    "mean_degree",
    "max_degree",
    "missing_edges",
    "messages_sent",
    "bits_sent",
)


class MetricsRecorder:
    """Appends one row over :data:`COLUMNS` after every round."""

    def __init__(self) -> None:
        self._rows: List[Tuple[float, ...]] = []

    def __call__(self, process: DiscoveryProcess, result: RoundResult) -> None:
        graph = process.graph
        n = graph.n
        m = graph.number_of_edges()
        if graph.directed:
            degrees = graph.out_neighbor_rows()[1]
            missing = n * (n - 1) - m
        else:
            degrees = graph.neighbor_rows()[1]
            missing = graph.missing_edges()
        self._rows.append(
            (
                result.round_index,
                m,
                result.num_added,
                int(degrees.min()) if n else 0,
                float(degrees.mean()) if n else 0.0,
                int(degrees.max()) if n else 0,
                missing,
                result.messages_sent,
                result.bits_sent,
            )
        )

    def as_arrays(self) -> Dict[str, np.ndarray]:
        """Every column as a numpy array keyed by its name (empty before any round)."""
        return dict(zip(COLUMNS, (np.array(column) for column in zip(*self._rows))))

    def _column(self, name: str) -> np.ndarray:
        index = COLUMNS.index(name)
        return np.array([row[index] for row in self._rows], dtype=np.int64)

    def min_degree_series(self) -> np.ndarray:
        """The minimum-degree trajectory (one value per recorded round)."""
        return self._column("min_degree")

    def edges_series(self) -> np.ndarray:
        """The edge-count trajectory (one value per recorded round)."""
        return self._column("num_edges")

    def clear(self) -> None:
        """Drop every recorded row."""
        self._rows.clear()

    def __len__(self) -> int:
        return len(self._rows)
