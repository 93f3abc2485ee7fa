"""The draw budget the array backend's fused gossip kernels rely on.

On the array backend, push, pull and the directed walk draw a round's
uniforms as one ``rng.random((2, m))`` block; the list backend draws one
``rng.random(m)`` per sampling stage.  Seeded traces agree across backends
only because NumPy fills the block in order from the same stream.  The
golden traces would catch a break too, but only as an unexplained trace
diff; these tests name the two facts directly:

* a ``(2, m)`` block equals two consecutive ``m``-draws, for a seeded
  generator and for a ``SeedSequence.spawn`` child (the runner's trial
  streams);
* one synchronous round consumes exactly ``2m`` uniforms, with ``m`` the
  number of participating nodes.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.scheduler import FixedSubsetActivation, ScheduledProcess
from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen
from repro.graphs.adjacency import DynamicGraph
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


def _state_after_uniforms(rng, count):
    """The bit-generator state that drawing ``count`` uniforms from ``rng`` would leave."""
    twin = copy.deepcopy(rng)
    twin.random(count)
    return twin.bit_generator.state


CASES = {
    "push": lambda: gen.cycle_graph(12),
    # node 0 is isolated: dead ends still consume their uniforms
    "pull": lambda: DynamicGraph(12, [(u, u + 1) for u in range(1, 11)]),
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
