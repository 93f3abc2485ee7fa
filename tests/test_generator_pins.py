"""Pins of every generator's neighbour rows, order included.

The golden traces start from a 64-cycle only, so a generator that built
the right edge set with a reordered neighbour row would pass them and
still change every seeded run that starts from it: the processes sample
a neighbour by its index in the row.  Each case below builds one graph at
a small size with a fixed seed and compares a digest of
``[list(g.neighbors(u)) for u in g.nodes()]`` (out-neighbours for
digraphs) with the value recorded when the case was added.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen


def _rows_digest(g) -> str:
    rows_of = g.out_neighbors if g.directed else g.neighbors
    rows = [[int(v) for v in rows_of(u)] for u in g.nodes()]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def _rng() -> np.random.Generator:
    return np.random.default_rng(5)


UNDIRECTED_FAMILY_PINS = {
    "path": "1543d08636d44b0f",
    "cycle": "b59022e67843a454",
    "star": "e15e23b0147663f7",
    "binary_tree": "4e804dd2da6d7c6f",
    "random_tree": "fb65125eba639a61",
    "lollipop": "f84c0f16e8eefea2",
    "grid": "013c2d06f6edbff7",
    "erdos_renyi": "4247b791f37d799d",
    "barabasi_albert": "14f9b9848f8ae666",
    "watts_strogatz": "a0de41a88ef0409d",
}

DIRECTED_FAMILY_PINS = {
    "directed_cycle": "0ba2ee4448879317",
    "bidirected_path": "1db03958852d9bf5",
    "random_strong": "797db29818dcf4b0",
    "thm14_weak": "45d371c4de2ddf8c",
    "thm15_strong": "513ebac3e71b0e59",
}

GENERATOR_CASES = {
    "empty_graph": lambda: gen.empty_graph(5),
    "path_graph": lambda: gen.path_graph(9),
    "cycle_graph": lambda: gen.cycle_graph(9),
    "star_graph": lambda: gen.star_graph(9),
    "complete_graph": lambda: gen.complete_graph(7),
    "complete_bipartite_graph": lambda: gen.complete_bipartite_graph(3, 4),
    "grid_graph": lambda: gen.grid_graph(3, 4),
    "hypercube_graph": lambda: gen.hypercube_graph(3),
    "binary_tree_graph": lambda: gen.binary_tree_graph(10),
    "caterpillar_graph": lambda: gen.caterpillar_graph(4, 2),
    "lollipop_graph": lambda: gen.lollipop_graph(4, 3),
    "barbell_graph": lambda: gen.barbell_graph(4, 2),
    "wheel_graph": lambda: gen.wheel_graph(8),
    "double_star_graph": lambda: gen.double_star_graph(3, 2),
    "erdos_renyi_graph": lambda: gen.erdos_renyi_graph(20, 0.2, rng=_rng()),
    "erdos_renyi_graph:connected": lambda: gen.erdos_renyi_graph(
        20, 0.1, rng=_rng(), ensure_connected=True
    ),
    "gnm_random_graph": lambda: gen.gnm_random_graph(16, 30, rng=_rng()),
    "gnm_random_graph:connected": lambda: gen.gnm_random_graph(
        16, 30, rng=_rng(), ensure_connected=True
    ),
    "random_tree": lambda: gen.random_tree(20, _rng()),
    "barabasi_albert_graph": lambda: gen.barabasi_albert_graph(20, 3, rng=_rng()),
    "watts_strogatz_graph": lambda: gen.watts_strogatz_graph(20, 4, 0.3, rng=_rng()),
    "random_regular_graph": lambda: gen.random_regular_graph(16, 3, rng=_rng()),
    "random_connected_graph": lambda: gen.random_connected_graph(20, 0.15, rng=_rng()),
    "complete_minus_matching": lambda: gen.complete_minus_matching(8, 3),
    "complete_minus_random_edges": lambda: gen.complete_minus_random_edges(
        9, 10, rng=_rng()
    ),
    "fig1c_nonmonotone": gen.fig1c_nonmonotone,
    "fig1c_triangle_subgraph": gen.fig1c_triangle_subgraph,
    "fig1c_path_subgraph": gen.fig1c_path_subgraph,
    "nonmonotone_supergraph_pair:sparser": lambda: gen.nonmonotone_supergraph_pair()[0],
    "nonmonotone_supergraph_pair:denser": lambda: gen.nonmonotone_supergraph_pair()[1],
    "directed_path": lambda: dgen.directed_path(9),
    "directed_cycle": lambda: dgen.directed_cycle(9),
    "complete_digraph": lambda: dgen.complete_digraph(6),
    "bidirected_path": lambda: dgen.bidirected_path(9),
    "bidirected_cycle": lambda: dgen.bidirected_cycle(9),
    "bidirected_star": lambda: dgen.bidirected_star(9),
    "random_digraph": lambda: dgen.random_digraph(16, 0.2, rng=_rng()),
    "random_strongly_connected_digraph": lambda: dgen.random_strongly_connected_digraph(
        16, 0.15, rng=_rng()
    ),
    "random_tournament": lambda: dgen.random_tournament(10, rng=_rng()),
    "layered_dag": lambda: dgen.layered_dag(3, 3),
    "thm14_weak_lower_bound": lambda: dgen.thm14_weak_lower_bound(12),
    "thm15_strong_lower_bound": lambda: dgen.thm15_strong_lower_bound(10),
}

GENERATOR_PINS = {
    "empty_graph": "217dfe378d888901",
    "path_graph": "cef68b48ce6a312d",
    "cycle_graph": "71590546b441fba6",
    "star_graph": "7e96dc232d38ddcf",
    "complete_graph": "678a62f738d26c39",
    "complete_bipartite_graph": "39b7a24d90b6cbfc",
    "grid_graph": "7bde449cb06fb2fd",
    "hypercube_graph": "d3f0a2efcdf6709e",
    "binary_tree_graph": "087499aba81f1dae",
    "caterpillar_graph": "c0e9e716bc0fa7fd",
    "lollipop_graph": "ef853933e34ad018",
    "barbell_graph": "abce5cfe61933f90",
    "wheel_graph": "d813960c59d26357",
    "double_star_graph": "8f6014ad4e0e4623",
    "erdos_renyi_graph": "496029fbea42852f",
    "erdos_renyi_graph:connected": "e02ac68cc1b4cec3",
    "gnm_random_graph": "d622a9be0522e10a",
    "gnm_random_graph:connected": "d71f0f065043315d",
    "random_tree": "fb65125eba639a61",
    "barabasi_albert_graph": "14f9b9848f8ae666",
    "watts_strogatz_graph": "497715c031faaabd",
    "random_regular_graph": "2dc762789411464f",
    "random_connected_graph": "6f5b2e1384084a88",
    # Canonical rows: this construction used to insert in the iteration
    # order of a Python set of edge tuples (node 0's row was
    # [2, 5, 7, 4, 3, 6]); it now inserts in sorted order ([2, 3, ..., 7]).
    "complete_minus_matching": "d21b94139f738fa4",
    "complete_minus_random_edges": "a91cb3bf014429d3",
    "fig1c_nonmonotone": "d9cab85395ed9305",
    "fig1c_triangle_subgraph": "5f48971a51840d24",
    "fig1c_path_subgraph": "f4e15cd69a11fe75",
    "nonmonotone_supergraph_pair:sparser": "7e0f74626aecd309",
    "nonmonotone_supergraph_pair:denser": "9407f0af5c759829",
    "directed_path": "5b92f391056049e0",
    "directed_cycle": "70ca6822f06b790d",
    "complete_digraph": "19760a345f7c497b",
    "bidirected_path": "cef68b48ce6a312d",
    "bidirected_cycle": "71590546b441fba6",
    "bidirected_star": "7e96dc232d38ddcf",
    "random_digraph": "c14087f85b6a4c74",
    "random_strongly_connected_digraph": "d5b1ca9392b6fce7",
    "random_tournament": "a9d0fb097fc603ba",
    "layered_dag": "0a0bc9034f2f98e5",
    "thm14_weak_lower_bound": "cbda5e079a015896",
    "thm15_strong_lower_bound": "7ef5fce084588e01",
}

#: public names of the generator modules that build no graph
NOT_GENERATORS = {
    "FAMILY_REGISTRY",
    "make_family",
    "family_names",
    "DIRECTED_FAMILY_REGISTRY",
    "make_directed_family",
    "directed_family_names",
}


@pytest.mark.parametrize("name", sorted(UNDIRECTED_FAMILY_PINS))
def test_undirected_family_rows(name):
    g = gen.make_family(name, 20, _rng())
    assert _rows_digest(g) == UNDIRECTED_FAMILY_PINS[name]


@pytest.mark.parametrize("name", sorted(DIRECTED_FAMILY_PINS))
def test_directed_family_rows(name):
    g = dgen.make_directed_family(name, 16, _rng())
    assert _rows_digest(g) == DIRECTED_FAMILY_PINS[name]


@pytest.mark.parametrize("name", sorted(GENERATOR_CASES))
def test_generator_rows(name):
    assert _rows_digest(GENERATOR_CASES[name]()) == GENERATOR_PINS[name]


def test_every_family_and_generator_is_pinned():
    assert set(UNDIRECTED_FAMILY_PINS) == set(gen.FAMILY_REGISTRY)
    assert set(DIRECTED_FAMILY_PINS) == set(dgen.DIRECTED_FAMILY_REGISTRY)
    public = (set(gen.__all__) | set(dgen.__all__)) - NOT_GENERATORS
    assert public == {name.split(":")[0] for name in GENERATOR_CASES}
