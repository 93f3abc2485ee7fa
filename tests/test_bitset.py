"""Property tests: word-packed bitset kernels ≡ naive boolean references.

Every kernel in :mod:`repro.graphs.bitset` has a one-line ``bool``-matrix
reference; hypothesis drives random matrices, random digraphs and random
edge batches through both and demands identical answers.  The closure
kernels are additionally checked against the original per-node Python BFS
(kept in :mod:`repro.graphs.closure` as the oracle), and the graphs'
packed membership storage is pinned to a ``bool``-matrix reference under
batches containing self loops and duplicates.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle import ListGraph
from repro.core.push import PushDiscovery
from repro.graphs import bitset, closure
from repro.graphs import generators as gen
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph

FAST = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
@st.composite
def bool_matrices(draw, max_rows=9, max_bits=140):
    """A random boolean matrix whose width crosses word boundaries."""
    rows = draw(st.integers(min_value=0, max_value=max_rows))
    n_bits = draw(st.integers(min_value=0, max_value=max_bits))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return rng.random((rows, n_bits)) < draw(st.floats(min_value=0.0, max_value=1.0))


@st.composite
def digraph_edge_lists(draw, max_nodes=12, max_edges=40):
    """A random (n, directed edge list) pair; repeats and self loops allowed."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    return n, edges


# --------------------------------------------------------------------------- #
# pack / unpack / bit ops
# --------------------------------------------------------------------------- #
class TestPackUnpack:
    @FAST
    @given(bool_matrices())
    def test_roundtrip(self, mat):
        packed = bitset.pack_bool_matrix(mat)
        assert packed.dtype == np.uint64
        assert packed.shape == (mat.shape[0], bitset.words_for(mat.shape[1]))
        assert np.array_equal(bitset.unpack_bool_matrix(packed, mat.shape[1]), mat)

    @FAST
    @given(bool_matrices())
    def test_popcounts_match_sum(self, mat):
        packed = bitset.pack_bool_matrix(mat)
        assert np.array_equal(bitset.row_popcounts(packed), mat.sum(axis=1))
        assert bitset.count_total(packed) == int(mat.sum())

    def test_zeros_allocates_word_rows(self):
        bits = bitset.zeros(5, 130)
        assert bits.shape == (5, 3)
        assert bits.dtype == np.uint64
        assert bitset.count_total(bits) == 0

    def test_memory_is_an_eighth_of_bool(self):
        n = 512
        assert bitset.zeros(n, n).nbytes * 8 == np.zeros((n, n), dtype=bool).nbytes


class TestBitOps:
    @FAST
    @given(bool_matrices(max_rows=8, max_bits=100), st.integers(0, 2**31 - 1))
    def test_get_set_clear_bits_match_reference(self, mat, seed):
        rows, n_bits = mat.shape
        if rows == 0 or n_bits == 0:
            return
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 25))
        rs = rng.integers(0, rows, size=k)
        cs = rng.integers(0, n_bits, size=k)

        packed = bitset.pack_bool_matrix(mat)
        assert np.array_equal(bitset.get_bits(packed, rs, cs), mat[rs, cs])

        bitset.set_bits(packed, rs, cs)
        ref = mat.copy()
        ref[rs, cs] = True
        assert np.array_equal(bitset.unpack_bool_matrix(packed, n_bits), ref)

        bitset.clear_bits(packed, rs, cs)
        ref[rs, cs] = False
        assert np.array_equal(bitset.unpack_bool_matrix(packed, n_bits), ref)

    @FAST
    @given(bool_matrices(max_rows=8, max_bits=100), st.integers(0, 2**31 - 1))
    def test_or_rows_matches_any(self, mat, seed):
        rows, n_bits = mat.shape
        if rows == 0:
            return
        rng = np.random.default_rng(seed)
        sel = np.flatnonzero(rng.random(rows) < 0.5)
        packed = bitset.pack_bool_matrix(mat)
        merged = bitset.or_rows(packed, sel)
        ref = mat[sel].any(axis=0) if sel.size else np.zeros(n_bits, dtype=bool)
        assert np.array_equal(
            bitset.unpack_bool_matrix(merged.reshape(1, -1), n_bits)[0], ref
        )

    @FAST
    @given(bool_matrices(max_rows=8, max_bits=100), st.integers(0, 2**31 - 1))
    def test_rows_or_into_matches_reference(self, mat, seed):
        """Scatter row-union delivery ≡ per-delivery ``|=`` on the bool matrix,
        including duplicate destinations and the chunked gather path."""
        rows, n_bits = mat.shape
        if rows == 0 or n_bits == 0:
            return
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 30))
        dst = rng.integers(0, rows, size=k)
        src = rng.integers(0, rows, size=k)
        packed = bitset.pack_bool_matrix(mat)
        bitset.rows_or_into(packed, dst, bitset.pack_bool_matrix(mat), src, chunk=3)
        ref = mat.copy()
        for d, s in zip(dst.tolist(), src.tolist()):
            ref[d] |= mat[s]
        assert np.array_equal(bitset.unpack_bool_matrix(packed, n_bits), ref)
        # payload-row form (one pre-gathered row per delivery)
        packed2 = bitset.pack_bool_matrix(mat)
        bitset.rows_or_into(packed2, dst, bitset.pack_bool_matrix(mat[src]), chunk=7)
        assert np.array_equal(bitset.unpack_bool_matrix(packed2, n_bits), ref)

    def test_rows_or_into_rejects_misaligned_payloads(self):
        bits = bitset.zeros(4, 10)
        with pytest.raises(ValueError):
            bitset.rows_or_into(bits, np.array([0, 1]), bitset.zeros(3, 10))
        with pytest.raises(ValueError):
            bitset.rows_or_into(bits, np.array([0, 1]), bits, np.array([0]))

    @FAST
    @given(bool_matrices(max_rows=8, max_bits=100), st.integers(0, 2**31 - 1))
    def test_delta_edges_matches_reference(self, mat, seed):
        rows, n_bits = mat.shape
        if rows == 0 or n_bits == 0 or rows != n_bits:
            return
        rng = np.random.default_rng(seed)
        grown = mat | (rng.random(mat.shape) < 0.3)
        old = bitset.pack_bool_matrix(mat)
        new = bitset.pack_bool_matrix(grown)
        us, vs = bitset.delta_edges(old, new, n_bits, directed=True)
        ref_us, ref_vs = np.nonzero(grown & ~mat)
        assert np.array_equal(us, ref_us) and np.array_equal(vs, ref_vs)
        # The undirected form reports each edge once (u < v) and never a
        # self loop, so the reference excludes the diagonal (k=1).
        uu, vu = bitset.delta_edges(old, new, n_bits, directed=False)
        ref_uu, ref_vu = np.nonzero(np.triu(grown & ~mat, k=1))
        assert np.array_equal(uu, ref_uu) and np.array_equal(vu, ref_vu)
        assert bool((uu < vu).all())

    @FAST
    @given(bool_matrices(max_rows=7, max_bits=80))
    def test_indices_and_transpose(self, mat):
        rows, n_bits = mat.shape
        packed = bitset.pack_bool_matrix(mat)
        for u in range(rows):
            assert np.array_equal(
                bitset.indices_from_bits(packed[u], n_bits), np.flatnonzero(mat[u])
            )
        if rows == n_bits:
            transposed = bitset.transpose_bits(packed, n_bits)
            assert np.array_equal(bitset.unpack_bool_matrix(transposed, n_bits), mat.T)


# --------------------------------------------------------------------------- #
# closure / reachability kernels vs the Python-BFS oracle
# --------------------------------------------------------------------------- #
class TestClosureKernels:
    @FAST
    @given(digraph_edge_lists())
    def test_closure_matches_bfs_oracle(self, n_edges):
        n, edges = n_edges
        g = ArrayDiGraph(n, edges)
        assert np.array_equal(
            closure.reachability_matrix(g), closure.reachability_matrix_bfs(g)
        )

    @FAST
    @given(digraph_edge_lists())
    def test_reachable_from_matches_bfs_oracle(self, n_edges):
        n, edges = n_edges
        g = ArrayDiGraph(n, edges)
        for source in range(n):
            assert closure.reachable_from(g, source) == closure.reachable_from_bfs(g, source)

    @FAST
    @given(digraph_edge_lists())
    def test_bfs_distances_bits_matches_queue_bfs(self, n_edges):
        n, edges = n_edges
        g = ArrayDiGraph(n, edges)
        bits = closure.adjacency_bits(g)
        for source in range(n):
            ref = np.full(n, -1, dtype=np.int64)
            ref[source] = 0
            frontier = [source]
            d = 0
            while frontier:
                d += 1
                nxt = []
                for u in frontier:
                    for v in g.out_neighbors(u):
                        if ref[v] < 0:
                            ref[v] = d
                            nxt.append(v)
                frontier = nxt
            assert np.array_equal(bitset.bfs_distances_bits(bits, source), ref)


# --------------------------------------------------------------------------- #
# the packed-row contract, on every kernel that writes rows
# --------------------------------------------------------------------------- #
def _in_place(bits, kernel, *args):
    out = bits.copy()
    kernel(out, *args)
    return out


def _batch(rng, n, size=12):
    return rng.integers(0, n, size), rng.integers(0, n, size)


def _closure_plus_batch(bits, n, rng):
    reach = bitset.transitive_closure_bits(bits, n)
    bitset.closure_add_edges(reach, *_batch(rng, n))
    return reach


#: kernel -> f(packed n x n adjacency, n, rng) returning the packed rows it writes;
#: in-place kernels write into a copy.
ROW_KERNELS = {
    "zeros": lambda bits, n, rng: bitset.zeros(n, n),
    "pack_bool_matrix": lambda bits, n, rng: bitset.pack_bool_matrix(
        bitset.unpack_bool_matrix(bits, n)
    ),
    "set_bit": lambda bits, n, rng: _in_place(bits, bitset.set_bit, n - 1, n - 1),
    "set_bits": lambda bits, n, rng: _in_place(bits, bitset.set_bits, *_batch(rng, n)),
    "clear_bits": lambda bits, n, rng: _in_place(bits, bitset.clear_bits, *_batch(rng, n)),
    "or_rows": lambda bits, n, rng: bitset.or_rows(bits, rng.integers(0, n, 4)),
    "rows_or_into": lambda bits, n, rng: _in_place(
        bits, bitset.rows_or_into, rng.integers(0, n, 12), bits, rng.integers(0, n, 12)
    ),
    "transitive_closure_bits": lambda bits, n, rng: bitset.transitive_closure_bits(bits, n),
    "closure_add_edges": _closure_plus_batch,
    "reachable_bits": lambda bits, n, rng: bitset.reachable_bits(bits, int(rng.integers(n))),
    "transpose_bits": lambda bits, n, rng: bitset.transpose_bits(bits, n),
}


class TestRowContract:
    """What the kernels' callers rely on: rows stay ``uint64``, ``words_for(n)``
    words wide (a ceiling), with every bit past ``n`` clear (no un-masked
    complement leaks into the padding), and no kernel writes to its inputs."""

    @pytest.mark.parametrize("kernel", sorted(ROW_KERNELS))
    @FAST
    @given(
        n=st.integers(min_value=1, max_value=140),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        density=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_rows_keep_dtype_width_and_clear_padding(self, kernel, n, seed, density):
        rng = np.random.default_rng(seed)
        bits = bitset.pack_bool_matrix(rng.random((n, n)) < density)
        before = bits.copy()
        out = ROW_KERNELS[kernel](bits, n, rng)
        assert out.dtype == np.uint64
        assert out.shape[-1] == -(-n // bitset.WORD_BITS)
        tail = n % bitset.WORD_BITS
        if tail:
            assert not (out[..., -1] >> np.uint64(tail)).any(), "bits set past n"
        assert np.array_equal(bits, before)


# --------------------------------------------------------------------------- #
# packed membership storage ≡ naive bool-matrix graph behaviour
# --------------------------------------------------------------------------- #
class TestPackedMembershipStorage:
    """Random batches (self loops, duplicates included) against the oracle's
    list-of-lists graph, which inserts edge by edge into Python lists and a set."""

    @staticmethod
    def _check_against_oracle(g, ref, n, edges):
        half = len(edges) // 2
        for batch in (edges[:half], edges[half:]):
            assert g.add_edges_batch(batch) == [e for e in batch if ref.add_edge(*e)]
        rows_of = g.out_neighbors if ref.directed else g.neighbors
        assert [rows_of(u).tolist() for u in range(n)] == ref.rows
        expected = np.zeros((n, n), dtype=bool)
        for u, row in enumerate(ref.rows):
            expected[u, row] = True
        assert np.array_equal(g.adjacency_matrix(), expected)
        assert np.array_equal(bitset.unpack_bool_matrix(g.adjacency_bits(), n), expected)
        for u, v in edges:
            key = (u, v) if ref.directed else (min(u, v), max(u, v))
            assert g.has_edge(u, v) == (key in ref.edge_set)
        assert not any(g.has_edge(u, u) for u in range(n))

    @FAST
    @given(digraph_edge_lists(max_nodes=10, max_edges=35))
    def test_undirected_batches_match_bool_reference(self, n_edges):
        n, edges = n_edges
        self._check_against_oracle(ArrayGraph(n), ListGraph(n), n, edges)

    @FAST
    @given(digraph_edge_lists(max_nodes=10, max_edges=35))
    def test_directed_batches_match_bool_reference(self, n_edges):
        n, edges = n_edges
        self._check_against_oracle(ArrayDiGraph(n), ListGraph(n, directed=True), n, edges)

    def test_membership_memory_is_packed(self):
        n = 256
        g = ArrayGraph(n)
        assert g.membership_nbytes() * 8 == np.zeros((n, n), dtype=bool).nbytes
        d = ArrayDiGraph(n)
        assert d.membership_nbytes() == g.membership_nbytes()


class TestGoldenTraceRegression:
    """The storage swap must not move a single trace byte (no RNG change)."""

    def test_array_backend_reproduces_golden_push_trace(self):
        golden = json.loads(
            (Path(__file__).parent / "data" / "golden_push_cycle_n64.json").read_text()
        )
        graph = gen.cycle_graph(golden["n"])
        process = PushDiscovery(graph, rng=golden["seed"])
        assert isinstance(process.graph, ArrayGraph)
        # Storage really is packed words, not bytes.
        n = golden["n"]
        assert process.graph.membership_nbytes() == bitset.words_for(n) * 8 * n
        result = process.run_to_convergence(record_history=True)
        replayed = [
            [r.round_index, [[int(u), int(v)] for u, v in r.added_edges]]
            for r in result.history
            if r.added_edges
        ]
        assert result.rounds == golden["rounds"]
        assert replayed == golden["added_by_round"]
