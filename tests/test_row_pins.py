"""Pins of the payload baselines' final neighbour rows, order included.

The golden traces pin each round's canonical edge set, and only at
n = 64; ``benchmarks/perf/expected.json`` pins rounds and edge counts.
Neither sees the order in which a round's inserts fill the rows, which a
later round samples by index (Name Dropper, pointer jump) or expands in
order.  Each case below runs a baseline to convergence from a fixed start
and seed and compares a digest of its final rows and degrees with the
value recorded when the case was added: ``sha256`` over the degrees as
little-endian ``int64`` and then every row's occupied entries, in order,
as little-endian ``int32``.  The 2048-node cases run in the slow tier.
"""

import hashlib

import numpy as np
import pytest

from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen
from repro.simulation.engine import make_process


def rows_digest(graph) -> str:
    """``sha256`` of the degrees and the occupied entries of every row, in order."""
    rows, deg = graph.out_neighbor_rows() if graph.directed else graph.neighbor_rows()
    width = int(deg.max()) if deg.size else 0
    occupied = rows[:, :width][np.arange(width)[None, :] < deg[:, None]]
    digest = hashlib.sha256(deg.astype("<i8").tobytes())
    digest.update(occupied.astype("<i4").tobytes())
    return digest.hexdigest()[:16]


def run(name: str, graph, seed: int):
    """Rounds to convergence and the final rows' digest."""
    process = make_process(name, graph, rng=np.random.default_rng(seed))
    result = process.run_to_convergence()
    assert result.converged
    return result.rounds, rows_digest(process.graph)


CYCLE_PINS = {
    (512, "flooding"): (8, "ffc042b0fd6f655c"),
    (512, "name_dropper"): (20, "3fdeafb9374174af"),
    (512, "pointer_jump"): (16, "c1ee07df3843e424"),
    (2048, "flooding"): (10, "a753b6d7af9b4bde"),
    (2048, "name_dropper"): (25, "3bfebf82e142fcad"),
    (2048, "pointer_jump"): (20, "488ebeceea4f3bb0"),
}

DIRECTED_PIN = (7, "d75c143bc95c3050")


@pytest.mark.parametrize(
    "n, name",
    [pytest.param(*key, marks=pytest.mark.slow) if key[0] > 512 else key for key in CYCLE_PINS],
)
def test_cycle_rows(n, name):
    assert run(name, gen.cycle_graph(n), seed=n) == CYCLE_PINS[n, name]


def test_directed_pointer_jump_rows():
    graph = dgen.make_directed_family("random_strong", 48, np.random.default_rng(7))
    assert run("pointer_jump_directed", graph, seed=7) == DIRECTED_PIN
