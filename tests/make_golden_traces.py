"""Regenerate the golden seeded traces under ``tests/data/``.

Run from the repository root after an *intentional* change to the RNG draw
convention (which invalidates the recorded traces)::

    PYTHONPATH=src python tests/make_golden_traces.py

The traces pin the exact per-round added edges of each process on a
64-cycle; ``tests/test_golden_traces.py`` asserts that the processes still
reproduce them bit-for-bit.  Never regenerate to paper over an accidental
drift — the whole point is to catch one.

Two trace flavours are recorded:

* the gossip processes (push/pull) record each round's added edges in
  exact application order;
* the baselines (PR 3) record each round's added edges as canonically
  sorted ``(min, max)`` pairs (``canonical_edges: true`` in the JSON),
  because the packed flooding round discovers the same per-round edge
  sets in canonical rather than scan order — the *sets*, the round count
  and the message/bit totals are the pinned contract.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.baselines.flooding import NeighborhoodFlooding
from repro.baselines.name_dropper import NameDropper
from repro.baselines.pointer_jump import RandomPointerJump
from repro.core.pull import PullDiscovery
from repro.core.push import PushDiscovery
from repro.graphs import generators as gen

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_SEED = 20120614
GOLDEN_N = 64

#: filename -> (process class, registry name, canonical-edge-order flag)
GOLDEN_CASES = {
    "golden_push_cycle_n64.json": (PushDiscovery, "push", False),
    "golden_pull_cycle_n64.json": (PullDiscovery, "pull", False),
    "golden_name_dropper_cycle_n64.json": (NameDropper, "name_dropper", True),
    "golden_pointer_jump_cycle_n64.json": (RandomPointerJump, "pointer_jump", True),
    "golden_flooding_cycle_n64.json": (NeighborhoodFlooding, "flooding", True),
}


def canonical_round(edges) -> list:
    """Canonically sorted ``[u, v]`` pairs (``u < v``) for one round."""
    return sorted([min(int(u), int(v)), max(int(u), int(v))] for u, v in edges)


def build_trace(process_cls, process_name: str, canonical: bool) -> dict:
    """Run the process to convergence and serialise its trace."""
    graph = gen.cycle_graph(GOLDEN_N)
    process = process_cls(graph, rng=GOLDEN_SEED)
    result = process.run_to_convergence(record_history=True)
    assert result.converged, "golden runs must converge"
    added_by_round = [
        [
            r.round_index,
            canonical_round(r.added_edges)
            if canonical
            else [[int(u), int(v)] for u, v in r.added_edges],
        ]
        for r in result.history
        if r.added_edges
    ]
    return {
        "process": process_name,
        "family": "cycle",
        "n": GOLDEN_N,
        "seed": GOLDEN_SEED,
        "canonical_edges": canonical,
        "rounds": result.rounds,
        "total_edges_added": result.total_edges_added,
        "total_messages": result.total_messages,
        "total_bits": result.total_bits,
        "added_by_round": added_by_round,
    }


def main() -> None:
    DATA_DIR.mkdir(exist_ok=True)
    for filename, (process_cls, name, canonical) in GOLDEN_CASES.items():
        trace = build_trace(process_cls, name, canonical)
        path = DATA_DIR / filename
        path.write_text(json.dumps(trace, separators=(",", ":")) + "\n")
        print(f"wrote {path} ({trace['rounds']} rounds, {trace['total_edges_added']} edges)")


if __name__ == "__main__":
    main()
