"""PR2 — microbenchmarks for the word-packed bitset kernels.

Times the three hot set-algebra paths the convergence sweeps live on, each
against its pre-PR2 implementation, at n ∈ {256, 1024, 4096}:

* **membership batch ops** — batched edge membership get/set on the packed
  ``uint64`` rows vs the old n×n ``bool`` matrix (the bool gather is
  already a single fancy index, so the headline win here is the 8× memory
  reduction, which is what lets the array backend scale);
* **closure** — all-pairs reachability via the Warshall bitset kernel
  (:func:`repro.graphs.closure.reachability_bits`) vs the old per-node
  Python BFS (``reachability_matrix_bfs``), on random out-degree-4
  digraphs (the BFS oracle is only timed up to n=1024 — beyond that it is
  minutes-slow, which is the point);
* **convergence check** — the per-round minimum-degree predicate through
  the process's incremental counter cache vs the old recompute-a-degree-
  copy-every-round style.

Results are printed and written to ``BENCH_PR2.json`` at the repo root
(skipped under ``--smoke`` so CI never overwrites the recorded snapshot).

A second test times **closure maintenance** under per-round edge batches:
:class:`repro.graphs.closure.IncrementalClosure` (row-OR propagation per
batch endpoint) against a full Warshall
:func:`repro.graphs.bitset.transitive_closure_bits` recompute per batch —
the machinery that makes the directed walk's closure-deficit tracking
affordable at large n.  Its snapshot goes to ``BENCH_PR5.json``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.push import PushDiscovery
from repro.graphs import bitset, closure
from repro.graphs import generators as gen
from repro.graphs.adjacency import DynamicDiGraph
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph
from repro.simulation.io import atomic_write_text

from _bench_helpers import BENCH_SEED, print_table, run_once, trial_count

SIZES = [256, 1024, 4096]
SMOKE_SIZES = [64, 128]
#: the BFS closure oracle is O(n·m) Python; past this n it is minutes-slow.
MAX_NAIVE_CLOSURE_N = 1024
#: batched membership operations per timing rep.
MEMBERSHIP_BATCH = 100_000
#: predicate evaluations per timing rep (one per simulated round).
PREDICATE_CALLS = 2_000

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR2.json"

CLOSURE_SIZES = [512, 1024]
SMOKE_CLOSURE_SIZES = [128]
#: edge batches per closure-maintenance run, and edges drawn per batch.
CLOSURE_BATCHES = 8
CLOSURE_BATCH_EDGES = 64

CLOSURE_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR5.json"


def _best_of(fn, reps: int = 3) -> float:
    """Best-of-``reps`` wall-clock seconds for one call of ``fn``."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _random_digraph(n: int, rng: np.random.Generator) -> DynamicDiGraph:
    """A random digraph with out-degree ~4 (a cycle plus random chords)."""
    g = DynamicDiGraph(n)
    for u in range(n):
        g.add_edge(u, (u + 1) % n)
    us = rng.integers(0, n, size=3 * n)
    vs = rng.integers(0, n, size=3 * n)
    g.add_edges_batch(list(zip(us.tolist(), vs.tolist())))
    return g


def _measure_membership(n: int, rng: np.random.Generator) -> dict:
    """Batched membership get/set: bool matrix vs packed rows."""
    us = rng.integers(0, n, size=MEMBERSHIP_BATCH)
    vs = rng.integers(0, n, size=MEMBERSHIP_BATCH)
    mat = np.zeros((n, n), dtype=bool)
    bits = bitset.zeros(n, n)
    get_bool_s = _best_of(lambda: mat[us, vs])
    get_bits_s = _best_of(lambda: bitset.get_bits(bits, us, vs))

    def set_bool():
        mat[us, vs] = True

    set_bool_s = _best_of(set_bool)
    set_bits_s = _best_of(lambda: bitset.set_bits(bits, us, vs))
    return {
        "get_bool_s": get_bool_s,
        "get_bits_s": get_bits_s,
        "set_bool_s": set_bool_s,
        "set_bits_s": set_bits_s,
        "bool_bytes": int(mat.nbytes),
        "bits_bytes": int(bits.nbytes),
        "memory_ratio": mat.nbytes / bits.nbytes,
    }


def _measure_closure(n: int, rng: np.random.Generator) -> dict:
    """All-pairs closure: Warshall bitset kernel vs per-node Python BFS."""
    g = _random_digraph(n, rng)
    ga = ArrayDiGraph.from_graph(g)
    bits_s = _best_of(lambda: closure.reachability_bits(ga), reps=2)
    row = {"closure_bits_s": bits_s, "closure_bfs_s": None, "closure_speedup": None}
    if n <= MAX_NAIVE_CLOSURE_N:
        bfs_s = _best_of(lambda: closure.reachability_matrix_bfs(g), reps=1)
        row["closure_bfs_s"] = bfs_s
        row["closure_speedup"] = bfs_s / bits_s
        # Both must agree, or the speedup is meaningless.
        assert np.array_equal(
            closure.reachability_matrix(ga), closure.reachability_matrix_bfs(g)
        )
    return row


def _measure_convergence_check(n: int) -> dict:
    """Per-round min-degree predicate: recompute-style vs incremental cache."""
    proc = PushDiscovery(gen.cycle_graph(n), rng=BENCH_SEED, backend="array")
    for _ in range(5):
        proc.step()
    graph = proc.graph
    threshold = n - 1

    def recompute_style():
        for _ in range(PREDICATE_CALLS):
            bool(int(graph.degrees().min()) >= threshold)

    def cached_style():
        for _ in range(PREDICATE_CALLS):
            bool(proc.cached_min_degree() >= threshold)

    old_s = _best_of(recompute_style)
    new_s = _best_of(cached_style)
    assert int(graph.degrees().min()) == proc.cached_min_degree()
    return {
        "convergence_old_s": old_s,
        "convergence_cached_s": new_s,
        "convergence_speedup": old_s / new_s,
    }


def test_bitset_kernel_microbench(benchmark, smoke):
    """Membership / closure / convergence kernels vs their pre-PR2 baselines."""
    sizes = SMOKE_SIZES if smoke else SIZES

    def measure():
        results = {}
        for n in sizes:
            rng = np.random.default_rng(BENCH_SEED + n)
            row = {"n": n}
            row.update(_measure_membership(n, rng))
            row.update(_measure_closure(n, rng))
            row.update(_measure_convergence_check(n))
            results[n] = row
        return results

    results = run_once(benchmark, measure)
    rows = [
        {
            "n": r["n"],
            "mem_ratio": r["memory_ratio"],
            "get_bool_ms": r["get_bool_s"] * 1e3,
            "get_bits_ms": r["get_bits_s"] * 1e3,
            "closure_bfs_s": r["closure_bfs_s"] if r["closure_bfs_s"] is not None else "-",
            "closure_bits_s": r["closure_bits_s"],
            "closure_x": r["closure_speedup"] if r["closure_speedup"] is not None else "-",
            "convergence_x": r["convergence_speedup"],
        }
        for r in results.values()
    ]
    print_table("PR2 bitset kernel microbenchmarks", rows)

    for r in results.values():
        # The packed matrix must be ~8x smaller at every size (exact up to
        # the <=63-bit padding of the last word per row).
        assert r["memory_ratio"] > 7.5 or r["n"] % 64 != 0

    if smoke:
        return
    snapshot = {
        "pr": 2,
        "seed": BENCH_SEED,
        "sizes": sizes,
        "membership_batch": MEMBERSHIP_BATCH,
        "predicate_calls": PREDICATE_CALLS,
        "results": {str(n): results[n] for n in sizes},
    }
    atomic_write_text(RESULTS_PATH, json.dumps(snapshot, indent=2) + "\n")
    print(f"snapshot written to {RESULTS_PATH}")
    # Acceptance: >=2x on the closure and convergence kernels at n=1024,
    # ~8x membership memory reduction.
    at_1024 = results[1024]
    assert at_1024["closure_speedup"] >= 2.0
    assert at_1024["convergence_speedup"] >= 2.0
    assert at_1024["memory_ratio"] >= 7.5


def test_membership_scaling_vs_bool(benchmark, smoke):
    """End-to-end sanity: an ArrayGraph filled to completeness stays packed."""
    n = 128 if smoke else 1024

    def build():
        g = ArrayGraph(n)
        us, vs = np.triu_indices(n, k=1)
        g.add_edges_batch_arrays(us.astype(np.int64), vs.astype(np.int64))
        return g

    g = run_once(benchmark, build)
    assert g.is_complete()
    bool_bytes = n * n  # one byte per pair in the old bool matrix
    print(
        f"\ncomplete ArrayGraph n={n}: membership {g.membership_nbytes()} B "
        f"vs bool-matrix {bool_bytes} B ({bool_bytes / g.membership_nbytes():.1f}x)"
    )
    assert g.membership_nbytes() * 8 == bool_bytes  # n²/8 bytes exactly when 64 | n


def _random_digraph_bits(n: int, rng: np.random.Generator, density: float = 0.01):
    mat = rng.random((n, n)) < density
    np.fill_diagonal(mat, False)
    return bitset.pack_bool_matrix(mat)


def _closure_maintenance(n: int, reps: int) -> dict:
    """Best-of-``reps`` maintenance seconds over CLOSURE_BATCHES edge batches.

    Both strategies start from the same closed matrix; the timed region is
    the per-batch maintenance only (the one-off seed Warshall is shared).
    """
    rng = np.random.default_rng(BENCH_SEED)
    bits = _random_digraph_bits(n, rng)
    batches = []
    for _ in range(CLOSURE_BATCHES):
        us = rng.integers(0, n, size=CLOSURE_BATCH_EDGES).astype(np.int64)
        vs = rng.integers(0, n, size=CLOSURE_BATCH_EDGES).astype(np.int64)
        keep = us != vs
        batches.append((us[keep], vs[keep]))
    best_inc = best_re = float("inf")
    for _ in range(reps):
        inc = closure.IncrementalClosure(bits.copy(), n)
        start = time.perf_counter()
        for us, vs in batches:
            inc.add_edges(us, vs)
        best_inc = min(best_inc, time.perf_counter() - start)

        current = bits.copy()
        recomputed = None
        start = time.perf_counter()
        for us, vs in batches:
            bitset.set_bits(current, us, vs)
            recomputed = bitset.transitive_closure_bits(current, n)
        best_re = min(best_re, time.perf_counter() - start)
        assert recomputed is not None and np.array_equal(inc.closure_bits(), recomputed)
    return {
        "n": n,
        "batches": CLOSURE_BATCHES,
        "batch_edges": CLOSURE_BATCH_EDGES,
        "incremental_s": best_inc,
        "recompute_s": best_re,
        "speedup": best_re / best_inc,
    }


def test_incremental_closure_maintenance(benchmark, smoke):
    """Incremental closure maintenance vs a Warshall recompute per edge batch."""
    closure_sizes = SMOKE_CLOSURE_SIZES if smoke else CLOSURE_SIZES
    reps = trial_count(smoke, 3)

    results = run_once(benchmark, lambda: [_closure_maintenance(n, reps) for n in closure_sizes])
    print_table(
        "closure maintenance under edge batches (incremental vs recompute)",
        results,
        ["n", "batches", "batch_edges", "incremental_s", "recompute_s", "speedup"],
    )

    # Acceptance: incremental maintenance beats recompute at every size.
    worst = min(r["speedup"] for r in results)
    assert worst > 1.0, f"incremental closure slower than recompute ({worst:.3f}x)"

    if smoke:
        return
    snapshot = {
        "seed": BENCH_SEED,
        "cpus": os.cpu_count(),
        "closure_sizes": closure_sizes,
        "best_closure_speedup": max(r["speedup"] for r in results),
        "results": {"closure": results},
    }
    atomic_write_text(CLOSURE_RESULTS_PATH, json.dumps(snapshot, indent=2) + "\n")
    print(f"snapshot written to {CLOSURE_RESULTS_PATH}")
