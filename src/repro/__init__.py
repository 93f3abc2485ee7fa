"""repro — a reproduction of "Discovery through Gossip" (SPAA 2012).

The package implements the paper's two gossip-based discovery processes
(push/triangulation and pull/two-hop walk), their directed variant, the
baseline resource-discovery algorithms they are compared against, and the
full experiment harness that reproduces every theorem's empirical shape.

Quickstart
----------
>>> from repro import PushDiscovery, generators
>>> graph = generators.cycle_graph(32)
>>> process = PushDiscovery(graph, rng=0)
>>> result = process.run_to_convergence()
>>> result.converged, graph.is_complete()
(True, True)

Backends
--------
The round engine runs on one of two interchangeable graph substrates,
selected with ``backend="list"`` (default) or ``backend="array"`` on any
process constructor, :func:`make_process`, the experiment specs, and the
CLI (``--backend array``):

``list``
    :class:`DynamicGraph` / :class:`DynamicDiGraph` — per-node Python
    lists plus a hash set; O(1) scalar operations, minimal memory.
``array``
    :class:`ArrayGraph` / :class:`ArrayDiGraph` — preallocated NumPy
    neighbour arrays (amortized doubling) plus a dense membership matrix;
    whole rounds execute as a handful of bulk array operations, several
    times faster at experiment scale.

Both backends consume the same RNG stream through the shared bulk
sampling rules in :mod:`repro.graphs.sampling`, so for a fixed seed they
produce **identical traces** (per-round added edges, round counts,
message/bit totals) under synchronous semantics —
``tests/test_backend_equivalence.py`` pins this contract.

>>> fast = PushDiscovery(generators.cycle_graph(32), rng=0, backend="array")
>>> fast.run_to_convergence().rounds == result.rounds
True

Subpackages
-----------
``repro.graphs``      dynamic graph substrates (list + array) and generators
``repro.core``        the paper's processes (push, pull, directed)
``repro.baselines``   Name Dropper, Random Pointer Jump, flooding
``repro.network``     message-passing protocol implementations
``repro.simulation``  experiment specs, runners, statistics, bounds
``repro.analysis``    scaling fits, non-monotonicity, degree growth
``repro.social``      social-evolution and group-discovery scenarios
"""

from repro.core.push import PushDiscovery
from repro.core.pull import PullDiscovery
from repro.core.directed import DirectedTwoHopWalk
from repro.core.base import (
    BatchProposals,
    DiscoveryProcess,
    RoundResult,
    RunResult,
    UpdateSemantics,
    id_bits,
)
from repro.core.subset import SubsetDiscovery
from repro.graphs.adjacency import DynamicDiGraph, DynamicGraph
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph, as_backend
from repro.graphs import generators, directed_generators, properties
from repro.baselines import NameDropper, RandomPointerJump, NeighborhoodFlooding
from repro.simulation.engine import make_process, measure_convergence_rounds

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "PushDiscovery",
    "PullDiscovery",
    "DirectedTwoHopWalk",
    "SubsetDiscovery",
    "DiscoveryProcess",
    "BatchProposals",
    "RoundResult",
    "RunResult",
    "UpdateSemantics",
    "id_bits",
    "DynamicGraph",
    "DynamicDiGraph",
    "ArrayGraph",
    "ArrayDiGraph",
    "as_backend",
    "generators",
    "directed_generators",
    "properties",
    "NameDropper",
    "RandomPointerJump",
    "NeighborhoodFlooding",
    "make_process",
    "measure_convergence_rounds",
]
