"""Process construction and single-run measurement helpers.

The experiment layer refers to processes by short string names
(``"push"``, ``"pull"``, ``"directed_pull"``, ``"name_dropper"``,
``"pointer_jump"``, ``"flooding"``) so that sweeps, benchmarks and the CLI
can be configured declaratively.  :func:`make_process` resolves a name to
a configured process instance; :func:`measure_convergence_rounds` is the
one-call entry point used by most experiments.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.baselines.flooding import NeighborhoodFlooding
from repro.baselines.name_dropper import NameDropper
from repro.baselines.pointer_jump import RandomPointerJump
from repro.core.base import DiscoveryProcess, RunResult, UpdateSemantics
from repro.core.directed import DirectedTwoHopWalk
from repro.core.pull import PullDiscovery
from repro.core.push import PushDiscovery
from repro.core.variants import FaultyPullDiscovery, FaultyPushDiscovery
from repro.graphs.adjacency import DynamicDiGraph, DynamicGraph
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph, as_backend

__all__ = [
    "PROCESS_REGISTRY",
    "make_process",
    "run_process",
    "measure_convergence_rounds",
    "process_names",
]

GraphLike = Union[DynamicGraph, DynamicDiGraph, ArrayGraph, ArrayDiGraph]

#: name -> (constructor, requires_directed_graph)
PROCESS_REGISTRY: Dict[str, Tuple[Callable[..., DiscoveryProcess], bool]] = {
    "push": (PushDiscovery, False),
    "pull": (PullDiscovery, False),
    "directed_pull": (DirectedTwoHopWalk, True),
    "name_dropper": (NameDropper, False),
    "pointer_jump": (RandomPointerJump, False),
    "pointer_jump_directed": (RandomPointerJump, True),
    "flooding": (NeighborhoodFlooding, False),
    "faulty_push": (FaultyPushDiscovery, False),
    "faulty_pull": (FaultyPullDiscovery, False),
}


def process_names() -> Sequence[str]:
    """All registered process names."""
    return sorted(PROCESS_REGISTRY)


def make_process(
    name: str,
    graph: GraphLike,
    rng: Union[np.random.Generator, int, None] = None,
    semantics: UpdateSemantics = UpdateSemantics.SYNCHRONOUS,
    backend: Optional[str] = None,
    **kwargs,
) -> DiscoveryProcess:
    """Build a process by registry name over ``graph``.

    ``backend`` selects the graph substrate: ``"list"`` (default behaviour)
    or ``"array"`` (the vectorized fast path — supported by every
    registered process, baselines included).  The graph is converted as
    needed.

    Raises ``KeyError`` for unknown names and ``TypeError`` when the graph
    kind does not match the process (e.g. an undirected graph passed to
    ``"directed_pull"``).
    """
    try:
        ctor, needs_directed = PROCESS_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown process {name!r}; known: {list(process_names())}") from None
    directed_graph = bool(getattr(graph, "directed", False))
    if needs_directed and not directed_graph:
        raise TypeError(f"process {name!r} requires a directed graph")
    if not needs_directed and directed_graph and name != "pointer_jump_directed":
        # pointer_jump accepts both kinds; all other undirected processes do not.
        if name != "pointer_jump":
            raise TypeError(f"process {name!r} requires an undirected graph")
    if backend is not None:
        graph = as_backend(graph, backend)
    return ctor(graph, rng=rng, semantics=semantics, **kwargs)


def run_process(
    process: DiscoveryProcess,
    max_rounds: Optional[int] = None,
    callbacks: Sequence[Callable] = (),
    record_history: bool = False,
) -> RunResult:
    """Run ``process`` to convergence with a safety cap (thin wrapper)."""
    return process.run_to_convergence(
        max_rounds=max_rounds, callbacks=callbacks, record_history=record_history
    )


def measure_convergence_rounds(
    name: str,
    graph: GraphLike,
    rng: Union[np.random.Generator, int, None] = None,
    max_rounds: Optional[int] = None,
    semantics: UpdateSemantics = UpdateSemantics.SYNCHRONOUS,
    copy_graph: bool = True,
    backend: Optional[str] = None,
    checkpoint_every: int = 0,
    checkpoint_dir: Union[str, "os.PathLike", None] = None,
    **kwargs,
) -> RunResult:
    """Build the named process over (a copy of) ``graph`` and run it to convergence.

    This is the workhorse of every scaling experiment: one call, one
    :class:`RunResult` whose ``rounds`` field is the convergence time.
    ``backend="array"`` routes the run through the vectorized fast path;
    the seeded result is identical to the list backend's.

    ``checkpoint_every=k`` with ``checkpoint_dir`` writes an exact
    checkpoint (``round_<index>`` stem) after every ``k``-th completed
    round; an interrupted run can then be continued draw-for-draw with
    :func:`repro.simulation.checkpoint.resume_from_checkpoint`.
    """
    work_graph = graph.copy() if copy_graph else graph
    process = make_process(
        name, work_graph, rng=rng, semantics=semantics, backend=backend, **kwargs
    )
    callbacks = ()
    if checkpoint_every:
        if checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        # Imported lazily: checkpoint sits one layer above the engine.
        from repro.simulation.checkpoint import periodic_checkpointer

        callbacks = (periodic_checkpointer(checkpoint_dir, checkpoint_every),)
    return process.run_to_convergence(max_rounds=max_rounds, callbacks=callbacks)
