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

Graph substrate
---------------
The processes run on :class:`ArrayGraph` / :class:`ArrayDiGraph`, which
every generator returns: preallocated NumPy neighbour rows (amortized
doubling) plus word-packed membership bits, so a whole round executes as
a handful of bulk array operations.  A round's uniforms are drawn as one
block and mapped to neighbours by the rules in
:mod:`repro.graphs.sampling`, so a seed fixes the whole trace (per-round
added edges, round counts, message/bit totals).

>>> again = PushDiscovery(generators.cycle_graph(32), rng=0)
>>> again.run_to_convergence().rounds == result.rounds
True

Subpackages
-----------
``repro.graphs``      the array graph substrate and the generators
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
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph
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
    "ArrayGraph",
    "ArrayDiGraph",
    "generators",
    "directed_generators",
    "properties",
    "NameDropper",
    "RandomPointerJump",
    "NeighborhoodFlooding",
    "make_process",
    "measure_convergence_rounds",
]
