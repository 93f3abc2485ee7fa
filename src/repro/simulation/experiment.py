"""Declarative experiment specifications.

An :class:`ExperimentSpec` describes one measurement point — which process,
on which graph family, at which size, under which options, for how many
trials.  A spec checks its fields when it is built, so a typo, or a
process that cannot run on the spec's kind of graph, fails at once
instead of as one failed-trial record per trial.  The runner in
:mod:`repro.simulation.runner` executes specs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Union

import numpy as np

from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph
from repro.graphs.directed_generators import DIRECTED_FAMILY_REGISTRY, make_directed_family
from repro.graphs.generators import FAMILY_REGISTRY, make_family
from repro.simulation.engine import PROCESS_REGISTRY, graph_kind_mismatch, require_array_backend

__all__ = ["ExperimentSpec"]

GraphFactory = Callable[[int, Optional[np.random.Generator]], Union[ArrayGraph, ArrayDiGraph]]


@dataclass(frozen=True)
class ExperimentSpec:
    """One measurement configuration.

    Attributes
    ----------
    process:
        Registry name of the process (see
        :data:`repro.simulation.engine.PROCESS_REGISTRY`).
    family:
        Name of a registered graph family, or ``"custom"`` when
        ``graph_factory`` is supplied.
    n:
        Target graph size handed to the family factory.
    trials:
        Number of independent trials.
    directed:
        Whether the trials' graphs are directed: ``family`` then names a
        directed family, and ``process`` must run on directed graphs.
    graph_factory:
        Optional explicit factory ``(n, rng) -> graph`` overriding ``family``.
    process_kwargs:
        Extra keyword arguments forwarded to the process constructor
        (e.g. ``failure_prob`` for the faulty variants).
    max_rounds:
        Optional hard cap per trial (defaults to the process's own cap).
    backend:
        ``"array"``, the one graph substrate; any other value raises
        ``ValueError``.
    checkpoint_every:
        When > 0 (and ``checkpoint_dir`` is set), each trial writes an
        exact checkpoint every this-many rounds under
        ``<checkpoint_dir>/trial_<index>/`` so interrupted sweeps can be
        resumed draw-for-draw (see :mod:`repro.simulation.checkpoint`).
    checkpoint_dir:
        Root directory for per-trial checkpoints.
    label:
        Free-form tag used in result tables.
    """

    process: str
    family: str
    n: int
    trials: int = 5
    directed: bool = False
    graph_factory: Optional[GraphFactory] = field(default=None, compare=False)
    process_kwargs: Dict[str, Any] = field(default_factory=dict, compare=False)
    max_rounds: Optional[int] = None
    backend: str = "array"
    checkpoint_every: int = 0
    checkpoint_dir: Optional[str] = field(default=None, compare=False)
    label: str = ""

    def __post_init__(self) -> None:
        """Reject a bad field with a ``ValueError`` naming it and its value."""
        if self.process not in PROCESS_REGISTRY:
            raise ValueError(
                f"process={self.process!r} is not registered; known: {sorted(PROCESS_REGISTRY)}"
            )
        if self.graph_factory is None:
            families = DIRECTED_FAMILY_REGISTRY if self.directed else FAMILY_REGISTRY
            if self.family not in families:
                kind = "directed" if self.directed else "undirected"
                raise ValueError(
                    f"family={self.family!r} is not a registered {kind} family; "
                    f"known: {sorted(families)}"
                )
        problem = graph_kind_mismatch(self.process, self.directed)
        if problem is not None:
            raise ValueError(f"directed={self.directed!r}: {problem}")
        require_array_backend(self.backend)
        for name, least in (("n", 1), ("trials", 1), ("checkpoint_every", 0)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name}={value!r} must be at least {least}")
        if self.max_rounds is not None and self.max_rounds < 0:
            raise ValueError(f"max_rounds={self.max_rounds!r} must be None or at least 0")

    def build_graph(
        self, rng: Optional[np.random.Generator] = None
    ) -> Union[ArrayGraph, ArrayDiGraph]:
        """Instantiate the starting graph for one trial."""
        if self.graph_factory is not None:
            return self.graph_factory(self.n, rng)
        if self.directed:
            return make_directed_family(self.family, self.n, rng)
        return make_family(self.family, self.n, rng)

    def describe(self) -> str:
        """Short human-readable description for logs and tables."""
        tag = f" [{self.label}]" if self.label else ""
        return f"{self.process} on {self.family}(n={self.n}) x{self.trials}{tag}"
