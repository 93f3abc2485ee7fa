"""Graph substrate for the gossip discovery processes.

This subpackage provides the graph substrate the processes mutate
(:mod:`repro.graphs.array_adjacency`: NumPy neighbour rows plus packed
membership bits), generators for every graph family
used in the paper's arguments and in our experiments
(:mod:`repro.graphs.generators`, :mod:`repro.graphs.directed_generators`),
structural property computations matching the paper's notation
(:mod:`repro.graphs.properties`), word-packed ``uint64`` bitset kernels for
membership/closure/convergence set algebra (:mod:`repro.graphs.bitset`),
transitive-closure utilities for the directed termination condition
(:mod:`repro.graphs.closure`), and the shared neighbour-sampling rule
(:mod:`repro.graphs.sampling`).
"""

from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph
from repro.graphs import (
    bitset,
    generators,
    directed_generators,
    properties,
    closure,
    sampling,
)

__all__ = [
    "ArrayGraph",
    "ArrayDiGraph",
    "bitset",
    "generators",
    "directed_generators",
    "properties",
    "closure",
    "sampling",
]
