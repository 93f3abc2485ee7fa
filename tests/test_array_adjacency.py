"""Property-style randomized tests for the array graphs.

:class:`oracle.ListGraph` (per-node Python lists plus an edge set, edges
added one by one) acts as the oracle: every randomized operation sequence
is applied to both representations and all observable state must agree —
degrees, membership, edge sets, neighbour row order, sampling, and the
structural invariants (no self loops, no duplicates).  Capacity doubling
is crossed deliberately so growth bugs cannot hide below the initial
allocation.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracle import ListGraph, check_digraph_invariants, check_graph_invariants
from repro.graphs import array_adjacency, bitset, properties
from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph, _stable_sort
from repro.simulation.engine import make_process


def random_edge_sequence(n, count, rng):
    """A seeded edge stream with duplicates and self loops mixed in."""
    us = rng.integers(n, size=count)
    vs = rng.integers(n, size=count)
    return list(zip(us.tolist(), vs.tolist()))


def batch_cases(seeds):
    """Inputs ``(seed, n, batch size)`` of the batch-insert oracle tests.

    ``n=None`` draws a small graph fed batches of ``n`` proposals.  The
    ``n300`` case has the batch sizes of payload rounds: 20,000 proposals
    per batch put about 130 entries on every row, with duplicates, both
    orientations of an edge and self loops in each batch.
    """
    small = [pytest.param(seed, None, None, id=str(seed)) for seed in range(seeds)]
    return small + [pytest.param(seeds, 300, 20_000, id="n300")]


def oracle_matrix(oracle: ListGraph) -> np.ndarray:
    mat = np.zeros((oracle.n, oracle.n), dtype=bool)
    for u, row in enumerate(oracle.rows):
        mat[u, row] = True
    return mat


class TestArrayGraphOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_add_sequence_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        oracle = ListGraph(n)
        array = ArrayGraph(n)
        for u, v in random_edge_sequence(n, 4 * n, rng):
            assert oracle.add_edge(u, v) == array.add_edge(u, v)
        assert array.number_of_edges() == len(oracle.edge_set)
        assert array.edge_list() == oracle.edge_list()
        degrees = [len(row) for row in oracle.rows]
        assert array.degrees().tolist() == degrees
        assert (array.min_degree(), array.max_degree()) == (min(degrees), max(degrees))
        for u in range(n):
            # Same contents *and* same insertion order per row.
            assert array.neighbors(u).tolist() == oracle.rows[u]
        for u, v in random_edge_sequence(n, 50, rng):
            assert array.has_edge(u, v) == (u != v and (min(u, v), max(u, v)) in oracle.edge_set)
        assert np.array_equal(array.adjacency_matrix(), oracle_matrix(oracle))

    @pytest.mark.parametrize("seed, n, size", batch_cases(5))
    def test_batch_add_matches_sequential_oracle(self, seed, n, size):
        rng = np.random.default_rng(100 + seed)
        n = n or int(rng.integers(5, 30))
        oracle = ListGraph(n)
        array = ArrayGraph(n)
        for _ in range(6 if size is None else 3):
            chunk = random_edge_sequence(n, size or n, rng)
            assert array.add_edges_batch(chunk) == [e for e in chunk if oracle.add_edge(*e)]
        assert array.edge_list() == oracle.edge_list()
        for u in range(n):
            assert array.neighbors(u).tolist() == oracle.rows[u]

    def test_no_self_loops_or_duplicates_ever(self):
        rng = np.random.default_rng(3)
        g = ArrayGraph(12)
        g.add_edges_batch(random_edge_sequence(12, 300, rng))
        seen = set()
        for u in range(12):
            row = g.neighbors(u).tolist()
            assert u not in row, "self loop stored"
            assert len(row) == len(set(row)), "duplicate neighbour stored"
            for v in row:
                seen.add((min(u, v), max(u, v)))
        assert len(seen) == g.number_of_edges()

    def test_growth_across_capacity_doubling(self):
        # A star forces one node's row through every doubling boundary.
        n = 70
        g = ArrayGraph(n)
        caps = {g.capacity}
        for leaf in range(1, n):
            g.add_edge(0, leaf)
            caps.add(g.capacity)
            assert g.degree(0) == leaf
            assert g.neighbors(0).tolist() == list(range(1, leaf + 1))
        assert g.capacity >= n - 1
        assert caps == {4, 8, 16, 32, 64, 128}, "capacity must grow by doubling"
        assert g == ArrayGraph(n, [(0, leaf) for leaf in range(1, n)])

    def test_random_neighbor_uniform_over_fixed_seed(self):
        g = gen.star_graph(9)  # hub 0, leaves 1..8
        rng = np.random.default_rng(42)
        counts = np.zeros(9, dtype=int)
        draws = 8000
        for _ in range(draws):
            counts[g.random_neighbor(0, rng)] += 1
        assert counts[0] == 0
        expected = draws / 8
        assert np.all(np.abs(counts[1:] - expected) < 5 * np.sqrt(expected))

    def test_bulk_random_neighbors_matches_oracle_stream(self):
        fast = gen.erdos_renyi_graph(30, 0.2, rng=np.random.default_rng(8))
        nodes = np.arange(30)
        draws_list = ListGraph.of(fast).sample(nodes, np.random.default_rng(77))
        draws_array = fast.random_neighbors(nodes, np.random.default_rng(77))
        assert np.array_equal(draws_list, draws_array)

    def test_bulk_sampling_handles_isolated_and_sentinel_nodes(self):
        g = ArrayGraph(5, [(0, 1)])
        rng = np.random.default_rng(0)
        out = g.random_neighbors(np.array([0, 2, -1, 1]), rng)
        assert out[0] == 1 and out[3] == 0
        assert out[1] == -1 and out[2] == -1

    def test_sampling_sentinels_never_read_neighbouring_rows(self):
        # Row 0 is full (degree 4 = capacity 4), node 1 is isolated and the
        # last node has a neighbour, so a flat gather that skipped the
        # masking would read row 0's last slot for node 1, or wrap a -1 node
        # to the last row.
        edges = [(0, 2), (0, 3), (0, 4), (0, 5), (5, 6)]
        base = ListGraph(7, edges)
        fast = ArrayGraph(7, edges)
        assert fast.capacity == 4
        nodes = np.array([1, -1, 0, 6, 1, -1])
        for seed in range(20):
            expected = base.sample(nodes, np.random.default_rng(seed))
            got = fast.random_neighbors(nodes, np.random.default_rng(seed))
            assert np.array_equal(got, expected)
            assert got[0] == got[1] == got[4] == got[5] == -1

    def test_copy_is_independent(self):
        g = gen.cycle_graph(10)
        h = g.copy()
        h.add_edge(0, 5)
        assert not g.has_edge(0, 5)
        assert h.has_edge(0, 5)

    def test_out_of_range_nodes_rejected(self):
        g = ArrayGraph(4)
        with pytest.raises(IndexError):
            g.add_edge(0, 4)
        with pytest.raises(IndexError):
            g.add_edges_batch([(0, 9)])
        with pytest.raises(ValueError):
            g.random_neighbor(0, np.random.default_rng(0))  # isolated

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="the only graph backend"):
            make_process("push", gen.cycle_graph(4), backend="gpu")


class TestArrayDiGraphOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_add_sequence_matches_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(5, 30))
        oracle = ListGraph(n, directed=True)
        array = ArrayDiGraph(n)
        for u, v in random_edge_sequence(n, 4 * n, rng):
            assert oracle.add_edge(u, v) == array.add_edge(u, v)
        assert array.number_of_edges() == len(oracle.edge_set)
        assert array.edge_list() == oracle.edge_list()
        assert array.out_degrees().tolist() == [len(row) for row in oracle.rows]
        assert array.in_degrees().tolist() == oracle_matrix(oracle).sum(axis=0).tolist()
        for u in range(n):
            assert array.out_neighbors(u).tolist() == oracle.rows[u]
        assert np.array_equal(array.adjacency_matrix(), oracle_matrix(oracle))

    @pytest.mark.parametrize("seed, n, size", batch_cases(3))
    def test_batch_add_matches_sequential_oracle(self, seed, n, size):
        rng = np.random.default_rng(300 + seed)
        n = n or int(rng.integers(5, 25))
        oracle = ListGraph(n, directed=True)
        array = ArrayDiGraph(n)
        for _ in range(5 if size is None else 3):
            chunk = random_edge_sequence(n, size or n, rng)
            assert array.add_edges_batch(chunk) == [e for e in chunk if oracle.add_edge(*e)]
        assert array.edge_list() == oracle.edge_list()
        for u in range(n):
            assert array.out_neighbors(u).tolist() == oracle.rows[u]
        assert array.in_degrees().tolist() == oracle_matrix(oracle).sum(axis=0).tolist()

    def test_bulk_out_sampling_matches_oracle_stream(self):
        from repro.graphs import directed_generators as dgen

        fast = dgen.random_strongly_connected_digraph(20, rng=np.random.default_rng(6))
        nodes = np.arange(20)
        a = ListGraph.of(fast).sample(nodes, np.random.default_rng(13))
        b = fast.random_out_neighbors(nodes, np.random.default_rng(13))
        assert np.array_equal(a, b)

    def test_out_neighbors_at_gather_parity(self):
        from repro.graphs import directed_generators as dgen

        fast = dgen.random_strongly_connected_digraph(15, rng=np.random.default_rng(2))
        rows = ListGraph.of(fast).rows
        rng = np.random.default_rng(21)
        nodes = rng.integers(15, size=30)
        idx = np.where(
            fast.out_degrees()[nodes] > 0,
            rng.integers(1 << 30, size=30) % np.maximum(fast.out_degrees()[nodes], 1),
            -1,
        )
        a = np.array([rows[u][i] if i >= 0 else -1 for u, i in zip(nodes, idx)])
        b = fast.out_neighbors_at(nodes, idx)
        assert np.array_equal(a, b)
        assert np.all((a >= 0) == (idx >= 0))  # -1 sentinel passthrough

    def test_growth_across_capacity_doubling(self):
        n = 40
        g = ArrayDiGraph(n)
        for v in range(1, n):
            g.add_edge(0, v)
        assert g.out_degree(0) == n - 1
        assert g.capacity >= n - 1
        assert g.out_neighbors(0).tolist() == list(range(1, n))
        assert g.in_degrees().sum() == n - 1

    def test_to_undirected_forgets_direction(self):
        g = ArrayDiGraph(4, [(0, 1), (1, 0), (2, 3)])
        und = g.to_undirected()
        assert und.edge_list() == [(0, 1), (2, 3)]


class TestArrayDiGraphBasics:
    def test_copy_is_independent(self):
        from repro.graphs import directed_generators as dgen

        g = dgen.directed_cycle(6)
        h = g.copy()
        h.add_edge(0, 3)
        assert not g.has_edge(0, 3)
        assert g.number_of_edges() == 6
        assert g.in_degree(3) == 1 and h.in_degree(3) == 2
        assert h.out_neighbors(0).tolist() == [1, 3]
        assert g.out_neighbors(0).tolist() == [1]

    def test_in_degree_counts_incoming_edges(self):
        g = ArrayDiGraph(4, [(0, 2), (1, 2), (3, 2), (2, 0)])
        assert [g.in_degree(u) for u in range(4)] == [1, 0, 3, 0]
        assert g.in_degrees().tolist() == [1, 0, 3, 0]

    def test_out_of_range_nodes_rejected(self):
        g = ArrayDiGraph(4, [(0, 1)])
        with pytest.raises(IndexError):
            g.add_edge(0, 4)
        with pytest.raises(IndexError):
            g.add_edges_batch([(0, 9)])
        with pytest.raises(IndexError):
            g.in_degree(4)
        with pytest.raises(ValueError, match="no out-neighbors"):
            g.random_out_neighbor(1, np.random.default_rng(0))  # a sink

    def test_random_out_neighbor_matches_oracle_stream(self):
        edges = [(0, 1), (0, 3), (0, 4), (2, 0)]
        base, fast = ListGraph(5, edges, directed=True), ArrayDiGraph(5, edges)
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(30):
            assert fast.random_out_neighbor(0, a) == base.pick(0, b)
        assert a.bit_generator.state == b.bit_generator.state

    def test_add_edges_from_counts_new_only(self):
        g = ArrayDiGraph(3, [(0, 1)])
        assert g.add_edges_from(iter([(0, 1), (1, 1), (1, 0), (1, 2), (1, 2)])) == 2
        assert g.edge_list() == [(0, 1), (1, 0), (1, 2)]


    def test_remove_edge_keeps_row_order(self):
        g = ArrayDiGraph(4, [(0, 1), (0, 2), (0, 3), (2, 0)])
        assert g.remove_edge(0, 2) is True
        assert g.remove_edge(0, 2) is False  # already gone
        assert g.out_neighbors(0).tolist() == [1, 3]
        assert not g.has_edge(0, 2)
        assert (g.number_of_edges(), g.in_degree(2)) == (3, 0)
        assert g.has_edge(2, 0)  # the reverse edge is its own
        g.add_edge(0, 2)  # a removed edge can come back, at the end
        assert g.out_neighbors(0).tolist() == [1, 3, 2]


class TestArrayGraphScalarApi:
    def test_random_neighbor_pair_matches_oracle_stream(self):
        fast = gen.star_graph(6)
        base = ListGraph.of(fast)
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        pairs = [fast.random_neighbor_pair(0, a) for _ in range(40)]
        assert pairs == [(base.pick(0, b), base.pick(0, b)) for _ in range(40)]
        assert a.bit_generator.state == b.bit_generator.state
        with pytest.raises(ValueError, match="no neighbors"):
            ArrayGraph(3).random_neighbor_pair(1, a)

    def test_add_edges_from_counts_new_only(self):
        g = ArrayGraph(4, [(0, 1)])
        # (1, 0) repeats (0, 1) undirected; (2, 2) is a self loop
        assert g.add_edges_from(iter([(1, 0), (2, 2), (2, 3), (3, 2), (0, 3)])) == 2
        assert g.edge_list() == [(0, 1), (0, 3), (2, 3)]


ALL_GRAPH_CLASSES = [ArrayGraph, ArrayDiGraph]


class TestGraphClassContract:
    """Behaviour both graph classes share, whatever their kind."""

    @pytest.mark.parametrize("cls", ALL_GRAPH_CLASSES)
    def test_negative_node_count_rejected(self, cls):
        with pytest.raises(ValueError, match="non-negative"):
            cls(-1)

    @pytest.mark.parametrize("cls", ALL_GRAPH_CLASSES)
    def test_zero_node_graph_is_empty(self, cls):
        g = cls(0)
        assert g.number_of_nodes() == 0
        assert g.number_of_edges() == 0
        assert g.edge_list() == []
        if not cls.directed:
            assert g.min_degree() == 0 and g.max_degree() == 0

    @pytest.mark.parametrize("cls", [ArrayGraph, ArrayDiGraph])
    def test_unhashable(self, cls):
        with pytest.raises(TypeError, match="unhashable"):
            hash(cls(2))

    @pytest.mark.parametrize("cls", ALL_GRAPH_CLASSES)
    @pytest.mark.parametrize("u, v", [(-1, 0), (0, -1), (0, 4), (4, 0), (0, 70), (-1, -1)])
    def test_has_edge_rejects_out_of_range_nodes(self, cls, u, v):
        """Node -1 must not wrap to the last row (here the edge ``3 -> 0``)."""
        g = cls(4, [(3, 0)])
        with pytest.raises(IndexError, match="out of range"):
            g.has_edge(u, v)

    @pytest.mark.parametrize("cls", ALL_GRAPH_CLASSES)
    def test_never_equal_to_a_non_graph(self, cls):
        g = cls(2, [(0, 1)])
        assert g != [(0, 1)]
        assert not (g == "graph")

    @pytest.mark.parametrize("cls", [ArrayGraph, ArrayDiGraph])
    def test_repr_names_size(self, cls):
        g = cls(3, [(0, 1), (1, 2)])
        assert repr(g) == f"{cls.__name__}(n=3, m=2, cap={g.capacity})"


class TestNumpyIntegerIndices:
    """Membership tests with a NumPy-integer column read bit 63 of a word.

    ``bitset.get_bit`` shifted the Python int of a word by ``col & 63``;
    with an ``np.int64`` column that shift count stays a NumPy integer, and
    a word with bit 63 set overflowed a C long.  Neighbour rows hold
    NumPy integers, so every scalar caller that feeds a row entry back in
    hit it once some row reached node 63.
    """

    @pytest.mark.parametrize("cls", ALL_GRAPH_CLASSES)
    def test_has_edge_with_numpy_column(self, cls):
        g = cls(70)
        g.add_edge(3, 63)
        assert g.has_edge(3, np.int64(63))
        assert g.has_edge(np.int64(3), np.int64(63))
        assert not g.has_edge(3, np.int64(64))
        assert bitset.get_bit(g.adjacency_bits(), np.int64(3), np.int64(63))

    @pytest.mark.parametrize("cls", ALL_GRAPH_CLASSES)
    def test_add_edge_with_int32_endpoints(self, cls):
        """Row entries are ``np.int32``; adding one as an endpoint sets its bit."""
        g = cls(70)
        assert g.add_edge(np.int32(0), np.int32(40))
        assert g.has_edge(0, 40)
        assert not g.add_edge(0, 40)
        row = g.out_neighbors(0) if g.directed else g.neighbors(0)
        assert row.tolist() == [40]

    def test_validation_and_clustering_on_a_70_clique(self):
        g = gen.complete_graph(70)
        assert check_graph_invariants(g) == []
        assert properties.average_clustering(g) == 1.0

    @pytest.mark.parametrize("name", ["name_dropper", "pointer_jump"])
    def test_sequential_payload_run_on_a_64_cycle(self, name):
        process = make_process(name, gen.cycle_graph(64), rng=1, semantics="sequential")
        assert process.run_to_convergence().converged
        assert process.graph.is_complete()


class TestMemoryPreflight:
    """A graph whose packed rows cannot fit in available memory is refused before allocation."""

    @pytest.mark.parametrize("cls", ALL_GRAPH_CLASSES)
    def test_refused_before_any_allocation(self, cls, monkeypatch):
        def refuse(rows, n_bits):
            raise AssertionError("allocated the membership rows")

        monkeypatch.setattr(array_adjacency, "_available_memory", lambda: 1 << 20)
        monkeypatch.setattr(bitset, "zeros", refuse)
        n = 4096
        need = 8 * n * (n // 64) + 4 * n * 4  # uint64 bit words, int32 row slots
        with pytest.raises(MemoryError, match=f"n={n} nodes needs {need} bytes"):
            cls(n)

    @pytest.mark.parametrize("cls", ALL_GRAPH_CLASSES)
    def test_small_graphs_and_unknown_memory_pass(self, cls, monkeypatch):
        monkeypatch.setattr(array_adjacency, "_available_memory", lambda: 1 << 20)
        assert cls(64).n == 64  # 64 · (1 + 4) words: 2,560 bytes
        monkeypatch.setattr(array_adjacency, "_available_memory", lambda: None)
        assert cls(4096).n == 4096

    def test_probe_reads_memavailable(self):
        available = array_adjacency._available_memory()
        assert available is None or available > 0


class TestMemoryProbeThreshold:
    """Graphs below a MiB never read the OS memory figure: it costs more than they do."""

    @pytest.mark.parametrize("cls", ALL_GRAPH_CLASSES)
    def test_small_graphs_and_their_copies_skip_the_probe(self, cls, monkeypatch):
        calls = []
        monkeypatch.setattr(array_adjacency, "_available_memory", lambda: calls.append(1))
        cls(16).copy()
        assert calls == []
        cls(4096)  # 4096 · (64 + 4) words: 2.2 MB
        assert calls == [1]


class TestCompositeSort:
    """The insert's stable sort packs each key and its batch position into one ``int64``."""

    def test_matches_stable_argsort(self):
        rng = np.random.default_rng(8)
        keys = rng.integers(0, 50, size=5000)
        sorted_keys, pos = _stable_sort(keys, 50)
        order = np.argsort(keys, kind="stable")
        assert np.array_equal(pos, order)
        assert np.array_equal(sorted_keys, keys[order])

    def test_refuses_batches_whose_keys_overflow_int64(self):
        # 4 positions take 3 bits: keys below 2**60 fill int64 exactly.
        keys = np.array([2**60 - 1, 0, 2**60 - 1, 5], dtype=np.int64)
        sorted_keys, pos = _stable_sort(keys, 2**60)
        assert sorted_keys.tolist() == [0, 5, 2**60 - 1, 2**60 - 1]
        assert pos.tolist() == [1, 3, 0, 2]
        # 8 positions take 4 bits: one more than fits.
        with pytest.raises(OverflowError, match="overflows the int64"):
            _stable_sort(np.zeros(8, dtype=np.int64), 2**60)


class TestStackedUnion:
    """``stacked`` plus ``load_block``: block ``s`` is its graph with IDs offset by ``s · n``."""

    @pytest.mark.parametrize("directed", [False, True])
    def test_each_block_is_the_graph_last_loaded_into_it(self, directed):
        n, k = 70, 3  # blocks straddle the 64-bit words of the membership rows
        rng = np.random.default_rng(3)
        if directed:
            cls, dense, sparse = ArrayDiGraph, dgen.make_directed_family, dgen.directed_cycle
            dense_family, rows_of, check = "random_strong", ArrayDiGraph.out_neighbors, check_digraph_invariants
        else:
            cls, dense, sparse = ArrayGraph, gen.make_family, gen.cycle_graph
            dense_family, rows_of, check = "erdos_renyi", ArrayGraph.neighbors, check_graph_invariants
        union = cls.stacked(k, n)
        assert union.capacity == 128 and union.number_of_edges() == 0
        graphs = [dense(dense_family, n, rng) for _ in range(k)]
        for s, graph in enumerate(graphs):
            union.load_block(s, graph)
        # Sparser graphs replace two blocks: nothing of the old ones may survive.
        graphs[1], graphs[0] = sparse(n), sparse(n)
        union.load_block(1, graphs[1])
        union.load_block(0, graphs[0])
        expected = np.zeros((k * n, k * n), dtype=bool)
        for s, graph in enumerate(graphs):
            expected[s * n : (s + 1) * n, s * n : (s + 1) * n] = graph.adjacency_matrix()
            for u in range(n):
                assert rows_of(union, s * n + u).tolist() == (rows_of(graph, u) + s * n).tolist()
            if directed:
                assert union.in_degrees()[s * n : (s + 1) * n].tolist() == graph.in_degrees().tolist()
        assert np.array_equal(union.adjacency_matrix(), expected)
        assert union.number_of_edges() == sum(g.number_of_edges() for g in graphs)
        assert check(union) == []
        assert union.capacity == 128

    def test_a_block_outside_the_union_is_refused(self):
        union = ArrayGraph.stacked(2, 8)
        with pytest.raises(IndexError, match="block 2 of 8 nodes"):
            union.load_block(2, gen.cycle_graph(8))
        with pytest.raises(IndexError, match="block 1 of 9 nodes"):
            union.load_block(1, gen.cycle_graph(9))
