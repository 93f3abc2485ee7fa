"""Microbenchmarks for the word-packed bitset kernels.

Times the two hot set-algebra paths the convergence sweeps live on, each
against the implementation it replaced, at n ∈ {256, 1024, 4096}:

* **membership batch ops** — batched edge membership get/set on the packed
  ``uint64`` rows vs an n×n ``bool`` matrix (the bool gather is already a
  single fancy index, so the headline win here is the 8× memory
  reduction, which is what lets the array graphs scale);
* **closure** — all-pairs reachability via the Warshall bitset kernel
  (:func:`repro.graphs.closure.reachability_bits`) vs the per-node Python
  BFS (``reachability_matrix_bfs``), on random out-degree-4 digraphs (the
  BFS oracle is only timed up to n=1024 — beyond that it is minutes-slow,
  which is the point).

Results are printed as a table.
"""

from __future__ import annotations

import time

import numpy as np

from repro.graphs import bitset, closure
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph

from _bench_helpers import BENCH_SEED, print_table, run_once

SIZES = [256, 1024, 4096]
SMOKE_SIZES = [64, 128]
#: the BFS closure oracle is O(n·m) Python; past this n it is minutes-slow.
MAX_NAIVE_CLOSURE_N = 1024
#: batched membership operations per timing rep.
MEMBERSHIP_BATCH = 100_000


def _best_of(fn, reps: int = 3) -> float:
    """Best-of-``reps`` wall-clock seconds for one call of ``fn``."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _random_digraph(n: int, rng: np.random.Generator) -> ArrayDiGraph:
    """A random digraph with out-degree ~4 (a cycle plus random chords)."""
    g = ArrayDiGraph(n, [(u, (u + 1) % n) for u in range(n)])
    us = rng.integers(0, n, size=3 * n)
    vs = rng.integers(0, n, size=3 * n)
    g.add_edges_batch_arrays(us, vs)
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
    bits_s = _best_of(lambda: closure.reachability_bits(g), reps=2)
    row = {"closure_bits_s": bits_s, "closure_bfs_s": None, "closure_speedup": None}
    if n <= MAX_NAIVE_CLOSURE_N:
        bfs_s = _best_of(lambda: closure.reachability_matrix_bfs(g), reps=1)
        row["closure_bfs_s"] = bfs_s
        row["closure_speedup"] = bfs_s / bits_s
        # Both must agree, or the speedup is meaningless.
        assert np.array_equal(
            closure.reachability_matrix(g), closure.reachability_matrix_bfs(g)
        )
    return row


def test_bitset_kernel_microbench(benchmark, smoke):
    """Membership and closure kernels vs the implementations they replaced."""
    sizes = SMOKE_SIZES if smoke else SIZES

    def measure():
        results = {}
        for n in sizes:
            rng = np.random.default_rng(BENCH_SEED + n)
            row = {"n": n}
            row.update(_measure_membership(n, rng))
            row.update(_measure_closure(n, rng))
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
        }
        for r in results.values()
    ]
    print_table("bitset kernel microbenchmarks", rows)

    for r in results.values():
        # The packed matrix must be ~8x smaller at every size (exact up to
        # the <=63-bit padding of the last word per row).
        assert r["memory_ratio"] > 7.5 or r["n"] % 64 != 0

    if smoke:
        return
    # Acceptance: >=2x on the closure kernel at n=1024, ~8x membership
    # memory reduction.
    at_1024 = results[1024]
    assert at_1024["closure_speedup"] >= 2.0
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
