"""The draw budget the fused gossip kernels rely on.

Push, pull and the directed walk draw a round's uniforms as one
``rng.random((2, m))`` block; the test oracle (``tests/oracle.py``) draws
one ``rng.random(m)`` per sampling stage.  Their seeded traces agree only
because NumPy fills the block in order from the same stream.  The golden
traces would catch a break too, but only as an unexplained trace diff;
these tests name the two facts directly:

* a ``(2, m)`` block equals two consecutive ``m``-draws, for a seeded
  generator and for a ``SeedSequence.spawn`` child (the runner's trial
  streams);
* one synchronous round consumes exactly ``2m`` uniforms, with ``m`` the
  number of participating nodes;
* one ``rng.integers(highs)`` call equals a scalar ``rng.integers(h)`` per
  element, the per-node contact draws of the pull and Name Dropper
  message protocols.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.scheduler import FixedSubsetActivation, ScheduledProcess
from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen
from repro.graphs.array_adjacency import ArrayGraph
from repro.simulation.engine import make_process


def _generators(seed):
    return {
        "default_rng": np.random.default_rng(seed),
        "spawned": np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[2]),
    }


@pytest.mark.parametrize("m", [0, 1, 7, 1024])
@pytest.mark.parametrize("seed", [0, 20120614])
def test_block_equals_two_stage_draws(seed, m):
    blocks = {name: rng.random((2, m)) for name, rng in _generators(seed).items()}
    for name, rng in _generators(seed).items():
        first, second = rng.random(m), rng.random(m)
        assert np.array_equal(blocks[name][0], first), name
        assert np.array_equal(blocks[name][1], second), name


@pytest.mark.parametrize("seed", [0, 20120614])
def test_integers_array_equals_scalar_draws(seed):
    # Pull and Name Dropper draw one contact index per node as one
    # rng.integers(degrees) call; it must give the per-node scalar draws.
    highs = np.array([1, 2, 3, 5, 7, 64, 2, 1, 1000, 3] * 20)
    for name, rng in _generators(seed).items():
        twin = copy.deepcopy(rng)
        assert rng.integers(highs).tolist() == [int(twin.integers(h)) for h in highs], name
        assert rng.bit_generator.state == twin.bit_generator.state, name
        rng.integers(highs[:0])
        assert rng.bit_generator.state == twin.bit_generator.state, name


def _state_after_uniforms(rng, count):
    """The bit-generator state that drawing ``count`` uniforms from ``rng`` would leave."""
    twin = copy.deepcopy(rng)
    twin.random(count)
    return twin.bit_generator.state


CASES = {
    "push": lambda: gen.cycle_graph(12),
    # node 0 is isolated: dead ends still consume their uniforms
    "pull": lambda: ArrayGraph(12, [(u, u + 1) for u in range(1, 11)]),
    "directed_pull": lambda: dgen.make_directed_family("thm14_weak", 16),
}


@pytest.mark.parametrize("subset", [None, [1, 4, 5, 9]])
@pytest.mark.parametrize("name", sorted(CASES))
def test_one_array_round_draws_exactly_two_m_uniforms(name, subset):
    process = make_process(name, CASES[name](), rng=np.random.default_rng(3), backend="array")
    runner = process if subset is None else ScheduledProcess(process, FixedSubsetActivation(subset))
    m = process.graph.n if subset is None else len(subset)
    for _ in range(3):
        expected = _state_after_uniforms(process.rng, 2 * m)
        runner.step()
        assert process.rng.bit_generator.state == expected
