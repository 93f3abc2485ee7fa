"""Golden-trace regression: the processes reproduce committed seeded traces bit-for-bit.

The JSON files under ``tests/data/`` record the exact per-round added
edges, round counts, and message/bit totals of reference runs (push,
pull, and the three baselines on a 64-node cycle, seed 20120614).  Any
refactor that changes the RNG draw order — reordering bulk draws,
changing the uniform→index mapping, touching neighbour insertion order —
breaks these tests immediately instead of silently invalidating
published experiment tables.

The gossip traces pin exact application order; the baseline traces
(``canonical_edges: true``) pin each round's added-edge *set* in
canonical order, because the packed flooding round discovers the same
edges in canonical rather than scan order.  Intentional convention
changes must regenerate the traces with ``tests/make_golden_traces.py``
and say so in the commit — the PR 3 sequential double-draw fix and the
baselines' move to the shared bulk-draw convention did exactly that.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines.flooding import NeighborhoodFlooding
from repro.baselines.name_dropper import NameDropper
from repro.baselines.pointer_jump import RandomPointerJump
from repro.core.pull import PullDiscovery
from repro.core.push import PushDiscovery
from repro.graphs import generators as gen

DATA_DIR = Path(__file__).parent / "data"

GOLDEN_CASES = [
    ("golden_push_cycle_n64.json", PushDiscovery),
    ("golden_pull_cycle_n64.json", PullDiscovery),
    ("golden_name_dropper_cycle_n64.json", NameDropper),
    ("golden_pointer_jump_cycle_n64.json", RandomPointerJump),
    ("golden_flooding_cycle_n64.json", NeighborhoodFlooding),
]


def load_golden(filename: str) -> dict:
    return json.loads((DATA_DIR / filename).read_text())


def replay(process_cls, golden: dict) -> dict:
    graph = gen.cycle_graph(golden["n"])
    process = process_cls(graph, rng=golden["seed"])
    result = process.run_to_convergence(record_history=True)
    if golden.get("canonical_edges"):
        rounds = [
            [r.round_index, sorted(sorted([int(u), int(v)]) for u, v in r.added_edges)]
            for r in result.history
            if r.added_edges
        ]
    else:
        rounds = [
            [r.round_index, [[int(u), int(v)] for u, v in r.added_edges]]
            for r in result.history
            if r.added_edges
        ]
    return {
        "rounds": result.rounds,
        "total_edges_added": result.total_edges_added,
        "total_messages": result.total_messages,
        "total_bits": result.total_bits,
        "added_by_round": rounds,
    }


@pytest.mark.parametrize("filename,process_cls", GOLDEN_CASES)
def test_reproduces_golden_trace(filename, process_cls):
    golden = load_golden(filename)
    replayed = replay(process_cls, golden)
    assert replayed["rounds"] == golden["rounds"]
    assert replayed["total_edges_added"] == golden["total_edges_added"]
    assert replayed["total_messages"] == golden["total_messages"]
    assert replayed["total_bits"] == golden["total_bits"]
    # Bit-for-bit: every round's added edges, in application (or canonical) order.
    assert replayed["added_by_round"] == golden["added_by_round"]


def test_golden_traces_cover_complete_graph():
    """Sanity on the artifacts themselves: they describe full convergence."""
    for filename, _ in GOLDEN_CASES:
        golden = load_golden(filename)
        n = golden["n"]
        recorded = sum(len(edges) for _, edges in golden["added_by_round"])
        assert recorded == golden["total_edges_added"]
        assert recorded == n * (n - 1) // 2 - n  # cycle starts with n edges
