"""Contracts of the two kernels that group a round's entries by node.

* ``array_adjacency._append_slots`` ranks the entries a batched insert
  appends: an entry's slot is its row's degree plus the number of earlier
  entries of the batch bound for the same row, and the degrees advance by
  the batch's counts.
* Flooding's row union takes its deliveries destination-major, from each
  recipient's own row, as ``bitset.rows_or_into`` requires (its own
  contract is pinned in ``test_bitset.py``).  It must give the union that
  every active sender delivering its row to each neighbour gives, however
  few nodes are active and whatever is isolated.

Each is checked against a per-entry (or per-delivery) Python reference.
"""

import numpy as np
import pytest

from repro.baselines import flooding
from repro.graphs import array_adjacency, bitset
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph, _append_slots
from test_bounded_rounds import rows_of, state


def reference_slots(deg, ends):
    """Slot of every entry, one at a time: the row's degree plus its earlier entries."""
    seen = {}
    slots = []
    for end in ends.tolist():
        slots.append(int(deg[end]) + seen.get(end, 0))
        seen[end] = seen.get(end, 0) + 1
    return slots


def check_append_slots(deg, ends):
    before = deg.copy()
    slots = _append_slots(deg, ends)
    assert slots.dtype == np.int64
    assert slots.tolist() == reference_slots(before, ends)
    assert deg.tolist() == (before + np.bincount(ends, minlength=deg.shape[0])).tolist()


class TestAppendSlots:
    @pytest.mark.parametrize("k", [0, 1, 2, 63, 400])
    @pytest.mark.parametrize("n", [1, 7, 70, 131])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_entry_reference(self, k, n, seed):
        rng = np.random.default_rng(seed)
        check_append_slots(rng.integers(0, 9, n), rng.integers(0, n, k))

    def test_one_row_receiving_over_a_thousand_entries(self):
        rng = np.random.default_rng(8)
        n = 1250  # not a multiple of 64
        ends = rng.integers(0, n, 3000)
        ends[rng.random(3000) < 0.5] = 1249
        assert (ends == 1249).sum() > 1000
        check_append_slots(rng.integers(0, 40, n), ends)

    def test_rows_at_both_ends_and_untouched_rows(self):
        deg = np.array([3, 0, 5, 0, 2], dtype=np.int64)
        check_append_slots(deg, np.array([4, 0, 4, 4, 0, 2], dtype=np.int64))
        assert deg.tolist() == [5, 0, 6, 0, 5]


def hub_batch(n, rng):
    """Proposals where node 5 gains over a thousand neighbours, mixed with noise.

    Random edges, repeats in both orientations and self loops are
    interleaved with the hub's edges, so every chunk boundary of a small
    chunk falls between entries of the hub's row.
    """
    hub = np.stack([np.full(n - 1, 5), np.delete(rng.permutation(n), 0)])
    hub = hub[:, hub[1] != 5]
    noise = rng.integers(0, n, (2, 600))
    pairs = np.concatenate([hub, noise, noise[::-1, :200], hub[:, :50]], axis=1)
    pairs = pairs[:, rng.permutation(pairs.shape[1])]
    return pairs[0], pairs[1]


class TestBatchedInsertRows:
    """The batched insert fills the rows exactly as one ``add_edge`` per proposal does."""

    @pytest.mark.parametrize("cls", [ArrayGraph, ArrayDiGraph])
    @pytest.mark.parametrize("chunk", [None, 7, 500])
    def test_hub_batch_matches_per_edge_inserts(self, cls, chunk, monkeypatch):
        n = 1250
        rng = np.random.default_rng(3)
        us, vs = hub_batch(n, rng)
        start = [(5, 1), (1, 2), (7, 5)]
        sequential = cls(n, start)
        expected = [(u, v) for u, v in zip(us.tolist(), vs.tolist()) if sequential.add_edge(u, v)]
        if chunk is not None:
            monkeypatch.setattr(array_adjacency, "CHUNK", chunk)
        batched = cls(n, start)
        added = batched.add_edges_batch_arrays(us, vs)
        assert added.tolist() == expected
        assert state(batched) == state(sequential)
        assert rows_of(batched)[1][5] > 1000  # the hub's degree


def sender_major_union(graph, active):
    """Every active sender ORs its round-start row into each neighbour's row."""
    rows, deg = graph.neighbor_rows()
    mat = graph.adjacency_matrix()
    out = mat.copy()
    for u in active.tolist():
        for v in rows[u, : deg[u]].tolist():
            out[v] |= mat[u]
    return out


def graph_with_isolated_nodes(n, rng):
    """A random graph on ``n`` nodes in which every fifth node is isolated."""
    us, vs = rng.integers(0, n, (2, 3 * n))
    keep = (us % 5 != 0) & (vs % 5 != 0)
    return ArrayGraph(n, list(zip(us[keep].tolist(), vs[keep].tolist())))


class TestFloodingUnion:
    """Flooding's destination-major union equals the sender-major union."""

    @pytest.mark.parametrize(
        "activation", ["all", "half", "one", "none", "isolated only", "repeated"]
    )
    @pytest.mark.parametrize("chunk", [None, 16])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_sender_major_union(self, activation, chunk, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        n = 70
        graph = graph_with_isolated_nodes(n, rng)
        active = {
            "all": np.arange(n),
            "half": np.sort(rng.choice(n, n // 2, replace=False)),
            "one": np.array([int(rng.integers(1, 5))]),
            "none": np.empty(0, dtype=np.int64),
            "isolated only": np.arange(0, n, 5),
            "repeated": rng.integers(0, n, n),
        }[activation]
        if chunk is not None:
            monkeypatch.setattr(array_adjacency, "CHUNK", chunk)
        rows, deg = graph.neighbor_rows()
        bits = graph.adjacency_bits()
        before = bits.copy()
        fresh = flooding._row_union(rows, deg, bits, active)
        assert np.array_equal(bitset.unpack_bool_matrix(fresh, n), sender_major_union(graph, active))
        assert np.array_equal(bits, before)
