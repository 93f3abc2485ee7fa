"""Process construction and single-run measurement helpers.

The experiment layer refers to processes by short string names
(``"push"``, ``"pull"``, ``"directed_pull"``, ``"name_dropper"``,
``"pointer_jump"``, ``"flooding"``) so that experiment specs, benchmarks
and the CLI can be configured declaratively.  :func:`make_process`
resolves a name to a configured process instance;
:func:`measure_convergence_rounds` is the one-call entry point used by
most experiments.
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
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph

__all__ = [
    "PROCESS_REGISTRY",
    "make_process",
    "measure_convergence_rounds",
    "process_names",
    "graph_kind_mismatch",
]

GraphLike = Union[ArrayGraph, ArrayDiGraph]

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


def graph_kind_mismatch(name: str, directed: bool) -> Optional[str]:
    """Why the registered process ``name`` cannot run on this kind of graph, or ``None``.

    The directed processes need a directed graph and the undirected ones
    an undirected graph; ``pointer_jump`` runs on both kinds.
    """
    needs_directed = PROCESS_REGISTRY[name][1]
    if needs_directed and not directed:
        return f"process {name!r} requires a directed graph"
    if directed and not needs_directed and name != "pointer_jump":
        return f"process {name!r} requires an undirected graph"
    return None


def make_process(
    name: str,
    graph: GraphLike,
    rng: Union[np.random.Generator, int, None] = None,
    semantics: UpdateSemantics = UpdateSemantics.SYNCHRONOUS,
    backend: Optional[str] = None,
    **kwargs,
) -> DiscoveryProcess:
    """Build a process by registry name over ``graph``.

    ``backend`` accepts ``"array"``, the one graph substrate, and ``None``;
    anything else raises ``ValueError``.

    Raises ``KeyError`` for unknown names and ``TypeError`` when the graph
    kind does not match the process (e.g. an undirected graph passed to
    ``"directed_pull"``).
    """
    try:
        ctor = PROCESS_REGISTRY[name][0]
    except KeyError:
        raise KeyError(f"unknown process {name!r}; known: {list(process_names())}") from None
    problem = graph_kind_mismatch(name, bool(getattr(graph, "directed", False)))
    if problem is not None:
        raise TypeError(problem)
    if backend is not None:
        require_array_backend(backend)
    return ctor(graph, rng=rng, semantics=semantics, **kwargs)


def require_array_backend(backend: str) -> None:
    """Raise ``ValueError`` unless ``backend`` is ``"array"``, the one graph substrate."""
    if backend != "array":
        raise ValueError(
            f"backend={backend!r}: \"array\" is the only graph backend "
            "(the list backend was removed)"
        )


def measure_convergence_rounds(
    name: str,
    graph: GraphLike,
    rng: Union[np.random.Generator, int, None] = None,
    max_rounds: Optional[int] = None,
    semantics: UpdateSemantics = UpdateSemantics.SYNCHRONOUS,
    copy_graph: bool = True,
    checkpoint_every: int = 0,
    checkpoint_dir: Union[str, "os.PathLike", None] = None,
    **kwargs,
) -> RunResult:
    """Build the named process over (a copy of) ``graph`` and run it to convergence.

    This is the workhorse of every scaling experiment: one call, one
    :class:`RunResult` whose ``rounds`` field is the convergence time.

    ``checkpoint_every=k`` with ``checkpoint_dir`` writes an exact
    checkpoint (``round_<index>`` stem) after every ``k``-th completed
    round; an interrupted run can then be continued draw-for-draw with
    :func:`repro.simulation.checkpoint.resume_from_checkpoint`.
    """
    work_graph = graph.copy() if copy_graph else graph
    process = make_process(name, work_graph, rng=rng, semantics=semantics, **kwargs)
    callbacks = ()
    if checkpoint_every:
        if checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        # Imported lazily: checkpoint sits one layer above the engine.
        from repro.simulation.checkpoint import periodic_checkpointer

        callbacks = (periodic_checkpointer(checkpoint_dir, checkpoint_every),)
    return process.run_to_convergence(max_rounds=max_rounds, callbacks=callbacks)
