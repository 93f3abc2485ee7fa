"""Bounded-memory rounds: chunked inserts and payload expansion, ``int32`` rows.

The batched insert and the payload baselines' rounds work through their
candidates one :data:`~repro.graphs.array_adjacency.CHUNK` at a time.
Chunking must be invisible: with the constant patched down to a few
entries, every insert and every round returns the same edges in the same
order and leaves the same rows, degrees and bits as one pass over the
whole batch.  A run's traced peak must then be bounded by what it keeps
(its final rows, the edges a round returns) plus a fixed chunk scratch,
whatever its payloads carry.  Before its first round a run that cannot
fit is refused.
"""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import _packed
from repro.graphs import array_adjacency
from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph, _round_up_pow2
from repro.graphs.closure import transitive_closure_edges
from repro.simulation import checkpoint
from repro.simulation.engine import make_process

GRAPH_CLASSES = [ArrayGraph, ArrayDiGraph]
PAYLOAD = ["name_dropper", "pointer_jump", "flooding"]


def rows_of(graph):
    """Live (out-)neighbour rows and degrees."""
    return graph.out_neighbor_rows() if graph.directed else graph.neighbor_rows()


def state(graph):
    """Everything an insert writes: occupied rows in order, degrees, bits, edge count."""
    rows, deg = rows_of(graph)
    return (
        [rows[u, : deg[u]].tolist() for u in range(graph.n)],
        deg.tolist(),
        graph.adjacency_bits().tolist(),
        graph.number_of_edges(),
    )


def straddling_batch(n, rng):
    """Proposals with duplicates, both orientations and self loops next to each other.

    Every proposal is followed by its reverse and by itself at varying
    distances, so some pair of occurrences straddles every chunk boundary
    of every small chunk size.
    """
    us = rng.integers(n, size=60)
    vs = rng.integers(n, size=60)
    batch = []
    for i, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
        batch.append((u, v))
        batch.insert(max(0, len(batch) - 1 - i % 5), (v, u))
        if i % 3 == 0:
            batch.append((u, v))
        if i % 7 == 0:
            batch.append((u, u))
    arr = np.asarray(batch, dtype=np.int64)
    return arr[:, 0], arr[:, 1]


class TestChunkedInsert:
    """An insert taken a chunk at a time equals the one-pass insert."""

    @pytest.mark.parametrize("cls", GRAPH_CLASSES)
    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 7, 16, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_one_pass(self, cls, chunk, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        n = 12
        start = [(0, 1), (1, 2), (5, 3)]
        us, vs = straddling_batch(n, rng)
        whole = cls(n, start)
        expected = whole.add_edges_batch_arrays(us, vs)
        assert us.shape[0] > 2 * 64  # more than one chunk at every size tried

        monkeypatch.setattr(array_adjacency, "CHUNK", chunk)
        chunked = cls(n, start)
        assert chunked.capacity == array_adjacency._MIN_CAPACITY
        added = chunked.add_edges_batch_arrays(us, vs)
        assert chunked.capacity > array_adjacency._MIN_CAPACITY  # the rows grew mid-batch
        assert added.tolist() == expected.tolist()
        assert state(chunked) == state(whole)

    @pytest.mark.parametrize("cls", GRAPH_CLASSES)
    def test_later_chunks_see_earlier_edges(self, cls, monkeypatch):
        monkeypatch.setattr(array_adjacency, "CHUNK", 2)
        g = cls(6)
        # Undirected chunks hold one proposal here, directed ones two: either
        # way (0, 1) and its repeats fall in different chunks.
        us = np.array([2, 0, 0, 1, 0, 3])
        vs = np.array([3, 1, 1, 0, 1, 4])
        added = g.add_edges_batch_arrays(us, vs).tolist()
        if cls is ArrayGraph:
            assert added == [(2, 3), (0, 1), (3, 4)]
        else:
            assert added == [(2, 3), (0, 1), (1, 0), (3, 4)]
        rows, deg = rows_of(g)
        assert rows[0, : deg[0]].tolist() == [1]

    @pytest.mark.parametrize("cls", GRAPH_CLASSES)
    def test_public_method_entered_once_per_batch(self, cls, monkeypatch):
        """A tracer wrapping the public method counts each batch's candidates once."""
        calls = []
        original = cls.add_edges_batch_arrays

        def counting(self, us, vs):
            calls.append(len(us))
            return original(self, us, vs)

        monkeypatch.setattr(cls, "add_edges_batch_arrays", counting)
        monkeypatch.setattr(array_adjacency, "CHUNK", 4)
        us, vs = straddling_batch(10, np.random.default_rng(3))
        cls(10).add_edges_batch_arrays(us, vs)
        assert calls == [us.shape[0]]


class TestPayloadChunks:
    def test_runs_cover_messages_in_order_within_the_budget(self, monkeypatch):
        monkeypatch.setattr(array_adjacency, "CHUNK", 10)
        counts = np.array([3, 1, 2, 6, 1, 1, 12, 2, 2, 2, 2, 0, 5])
        parts = list(_packed.payload_chunks(counts))
        assert parts[0].start == 0 and parts[-1].stop == counts.shape[0]
        for a, b in zip(parts, parts[1:]):
            assert a.stop == b.start
        for part in parts:
            width = counts[part].max()
            size = part.stop - part.start
            assert size == 1 or size * width <= 10
            # the run is the longest that fits: one more message would not
            if part.stop < counts.shape[0]:
                assert (size + 1) * max(width, counts[part.stop]) > 10

    def test_empty(self):
        assert list(_packed.payload_chunks(np.zeros(0, dtype=np.int64))) == []


def trace(name, chunk, monkeypatch, directed=False, n=40):
    """Per-round new edges (in order), candidates inserted, and the final rows."""
    if chunk is not None:
        monkeypatch.setattr(array_adjacency, "CHUNK", chunk)
    rng = np.random.default_rng(11)
    if directed:
        graph = dgen.make_directed_family("random_strong", n, rng)
    else:
        graph = gen.make_family("cycle", n, rng)
    process = make_process(name, graph, rng=rng)
    candidates = []
    cls = type(graph)
    original = cls.add_edges_batch_arrays

    def counting(self, us, vs):
        candidates.append(len(us))
        return original(self, us, vs)

    monkeypatch.setattr(cls, "add_edges_batch_arrays", counting)
    per_round = []
    while not process.is_converged():
        per_round.append(process.step().added_edges)
    monkeypatch.undo()
    return per_round, sum(candidates), state(graph)


class TestChunkedPayloadRounds:
    """Chunked payload rounds add the same edges, in the same order, as unchunked ones."""

    @pytest.mark.parametrize("name", PAYLOAD)
    @pytest.mark.parametrize("chunk", [1, 5, 37])
    def test_same_trace_as_one_chunk(self, name, chunk, monkeypatch):
        whole = trace(name, None, monkeypatch)
        chunked = trace(name, chunk, monkeypatch)
        assert chunked[0] == whole[0]
        assert chunked[1] == whole[1]  # the inserts saw the same candidates in total
        assert chunked[2] == whole[2]

    @pytest.mark.parametrize("chunk", [1, 9])
    def test_directed_pointer_jump(self, chunk, monkeypatch):
        whole = trace("pointer_jump_directed", None, monkeypatch, directed=True, n=24)
        chunked = trace("pointer_jump_directed", chunk, monkeypatch, directed=True, n=24)
        assert chunked == whole


class TestInt32Rows:
    """Neighbour rows are ``int32`` however the graph came to be."""

    @pytest.mark.parametrize("cls", GRAPH_CLASSES)
    def test_construction_growth_and_copy(self, cls):
        g = cls(40)
        assert rows_of(g)[0].dtype == np.int32
        g.add_edges_batch_arrays(np.zeros(39, dtype=np.int64), np.arange(1, 40))
        assert g.capacity == 64 and rows_of(g)[0].dtype == np.int32
        g.add_edge(1, 2)
        assert rows_of(g)[0].dtype == np.int32
        assert rows_of(g.copy())[0].dtype == np.int32
        assert isinstance(rows_of(g)[0][0, 0], np.int32)

    def test_subgraph(self):
        sub, _ = gen.complete_graph(10).subgraph([1, 4, 7, 9])
        assert sub.neighbor_rows()[0].dtype == np.int32

    @pytest.mark.parametrize("name, directed", [("name_dropper", False), ("directed_pull", True)])
    def test_checkpoint_restore(self, name, directed, tmp_path):
        rng = np.random.default_rng(5)
        make = dgen.make_directed_family if directed else gen.make_family
        graph = make("random_strong" if directed else "cycle", 30, rng)
        process = make_process(name, graph, rng=rng)
        process.run(max_rounds=3)
        path = checkpoint.save_checkpoint(process, tmp_path / "snap")
        restored = checkpoint.restore_process(checkpoint.load_checkpoint(path))
        assert rows_of(restored.graph)[0].dtype == np.int32
        assert state(restored.graph) == state(process.graph)

    def test_restore_of_a_file_with_int64_rows(self):
        path = Path(__file__).parent / "data" / "checkpoint_v1_list_name_dropper"
        loaded = checkpoint.load_checkpoint(path)
        assert loaded.arrays["nbr"].dtype == np.int64
        restored = checkpoint.restore_process(loaded)
        rows, deg = rows_of(restored.graph)
        assert rows.dtype == np.int32
        assert [rows[u, : deg[u]].tolist() for u in range(len(deg))] == [
            row[:d].tolist() for row, d in zip(loaded.arrays["nbr"], loaded.arrays["deg"])
        ]

    def test_flat_sample_index_is_int64(self):
        """``node · capacity`` of an ``int32`` node past 2³¹ does not wrap."""

        class WideRows:
            """A row block too wide to allocate: records the flat indices asked for."""

            shape = (16, 1 << 28)

            def take(self, flat):
                self.flat = flat
                return np.zeros(flat.shape, dtype=np.int32)

        rows = WideRows()
        nodes = np.array([15, 3], dtype=np.int32)
        array_adjacency._sample_rows(rows, np.full(16, 4), nodes, np.array([0.5, 0.0]))
        assert rows.flat.dtype == np.int64
        assert rows.flat.tolist() == [15 * (1 << 28) + 2, 3 * (1 << 28)]

    def test_sort_keys_of_int32_ids_are_int64(self):
        """The composite sort key ``key · 2^b + position`` of ``int32`` keys does not wrap."""
        keys = np.array([2**30, 5, 2**30], dtype=np.int32)
        sorted_keys, pos = array_adjacency._stable_sort(keys, 2**31)
        assert sorted_keys.tolist() == [5, 2**30, 2**30]
        assert pos.tolist() == [1, 0, 2]


def traced_peak(process):
    """Traced peak (bytes above the start) of a run to convergence, and its largest round."""
    largest = []
    tracemalloc.start()
    try:
        process.run_to_convergence(callbacks=(lambda p, r: largest.append(r.num_added),))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, max(largest)


class TestTracedPeak:
    """A payload run's traced peak is bounded by what it keeps plus a fixed chunk scratch.

    The bound is derived, not measured:

    * the final rows, ``n · cap`` ``int32`` slots, plus the half-width
      block the last doubling copies;
    * two copies of the ``n²/8``-byte membership rows (a round's teach
      rows or flooding's union, and one complement);
    * the chunk scratch, :data:`~repro.graphs.array_adjacency.CHUNK_TEMPORARIES`
      ``int64`` arrays of :data:`~repro.graphs.array_adjacency.CHUNK` entries;
    * 48 bytes per new edge of the largest round: two ``int64`` endpoints,
      held by the chunks' results and by their concatenation, and once
      more for the previous round's result, which the run loop still
      holds.

    The chunk is patched down to 2¹⁴ entries so that the scratch term is
    small next to the others: a round that builds its candidates, or
    their sort keys, all at once exceeds the bound.
    """

    N = 1024
    CHUNK = 1 << 14

    def bound(self, n, largest):
        cap = _round_up_pow2(n - 1)
        rows = 4 * n * cap + 4 * n * (cap // 2)
        bits = 2 * n * n // 8
        scratch = array_adjacency.CHUNK_TEMPORARIES * 8 * array_adjacency.CHUNK
        return rows + bits + scratch + 48 * largest

    @pytest.mark.parametrize("name", PAYLOAD)
    def test_payload_run_on_a_1024_cycle(self, name, monkeypatch):
        monkeypatch.setattr(array_adjacency, "CHUNK", self.CHUNK)
        rng = np.random.default_rng(2048)
        process = make_process(name, gen.cycle_graph(self.N), rng=rng)
        peak, largest = traced_peak(process)
        assert process.graph.is_complete()
        bound = self.bound(self.N, largest)
        assert peak < bound, f"{name} peaked at {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


class TestRunPreflight:
    """A run whose rows cannot grow to the complete graph's is refused before round 0."""

    def test_refused_with_graph_and_generator_untouched(self, monkeypatch):
        n = 2048
        process = make_process("name_dropper", gen.cycle_graph(n), rng=3)
        before = (state(process.graph), json.dumps(process.rng.bit_generator.state))
        monkeypatch.setattr(array_adjacency, "_available_memory", lambda: 16 << 20)
        # 2048 · 2048 final slots + the 1024-wide block, 4 bytes each, plus the scratch
        need = 4 * n * (2048 + 1024) + array_adjacency.CHUNK_TEMPORARIES * 8 * array_adjacency.CHUNK
        with pytest.raises(MemoryError, match=f"run on n={n} nodes needs {need} bytes"):
            process.run_to_convergence()
        assert process.round_index == 0
        assert (state(process.graph), json.dumps(process.rng.bit_generator.state)) == before

    def test_rows_already_wide_count_only_the_scratch(self, monkeypatch):
        # 600-node rows growing from capacity 4 to 1024 need 3.7 MB on top
        # of the 25.2 MB scratch, which alone fits.
        monkeypatch.setattr(array_adjacency, "_available_memory", lambda: 26 << 20)
        with pytest.raises(MemoryError):
            make_process("flooding", gen.cycle_graph(600), rng=1).run_to_convergence()
        process = make_process("flooding", gen.complete_graph(600), rng=1)
        assert process.run_to_convergence().rounds == 0

    @pytest.mark.parametrize("name", ["push", "name_dropper", "directed_pull"])
    def test_small_runs_never_probe(self, name, monkeypatch):
        calls = []
        monkeypatch.setattr(array_adjacency, "_available_memory", lambda: calls.append(1))
        rng = np.random.default_rng(0)
        if name == "directed_pull":
            graph = dgen.make_directed_family("random_strong", 16, rng)
        else:
            graph = gen.cycle_graph(16)
        assert make_process(name, graph, rng=rng).run_to_convergence().converged
        assert calls == []


class TestDirectedPointerJumpDeficit:
    """The closure deficit is a counter on packed rows, not a set of pairs."""

    def test_counter_tracks_the_missing_closure_pairs(self):
        rng = np.random.default_rng(9)
        graph = dgen.make_directed_family("thm14_weak", 30, rng)
        closure = transitive_closure_edges(graph)
        process = make_process("pointer_jump_directed", graph, rng=rng)
        while True:
            missing = sorted(e for e in closure if not graph.has_edge(*e))
            assert process._deficit == len(missing)
            assert process.missing_closure_pairs().tolist() == [list(e) for e in missing]
            assert process.is_converged() == (not missing)
            if not missing:
                break
            process.step()

    def test_sequential_rounds_keep_the_counter(self):
        rng = np.random.default_rng(4)
        graph = dgen.make_directed_family("random_strong", 20, rng)
        process = make_process("pointer_jump_directed", graph, rng=rng, semantics="sequential")
        assert process.run_to_convergence().converged
        assert process._deficit == 0
        assert sorted(graph.edges()) == sorted(transitive_closure_edges(graph))

    def test_checkpoint_writes_the_sorted_missing_pairs(self, tmp_path):
        rng = np.random.default_rng(6)
        graph = dgen.make_directed_family("random_strong", 24, rng)
        process = make_process("pointer_jump_directed", graph, rng=rng)
        closure = transitive_closure_edges(graph)
        process.run(max_rounds=1)
        path = checkpoint.save_checkpoint(process, tmp_path / "snap")
        with np.load(path.with_suffix(".npz")) as npz:
            missing = npz["missing"]
        assert missing.dtype == np.int64
        assert missing.tolist() == [list(e) for e in sorted(closure) if not graph.has_edge(*e)]
        restored = checkpoint.restore_process(checkpoint.load_checkpoint(path))
        assert restored._deficit == missing.shape[0]
        assert np.array_equal(restored._target_bits, process._target_bits)

