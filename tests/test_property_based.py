"""Property-based tests (hypothesis) for the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle import check_digraph_invariants, check_graph_invariants
from repro.core.pull import PullDiscovery
from repro.core.push import PushDiscovery
from repro.core.directed import DirectedTwoHopWalk
from repro.graphs import generators as gen
from repro.graphs import properties as props
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph
from repro.graphs.closure import transitive_closure_edges
from repro.simulation import stats

# Hypothesis settings: keep examples small so the whole suite stays fast.
FAST = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
@st.composite
def edge_lists(draw, max_nodes=10, max_edges=25):
    """A random (n, edge-list) pair; edges may repeat and include self loops."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    return n, edges


@st.composite
def connected_graphs(draw, min_nodes=3, max_nodes=10):
    """A random connected graph: a random tree plus random extra edges."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    extra = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10)
    )
    g = ArrayGraph(n)
    for v, p in enumerate(parents, start=1):
        g.add_edge(p, v)
    for u, v in extra:
        if u != v:
            g.add_edge(u, v)
    return g


@st.composite
def directed_graphs(draw, min_nodes=2, max_nodes=8):
    """A random weakly-connected digraph built from a random spanning arborescence."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    flips = [draw(st.booleans()) for _ in range(1, n)]
    extra = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12)
    )
    g = ArrayDiGraph(n)
    for (v, p), flip in zip(enumerate(parents, start=1), flips):
        if flip:
            g.add_edge(v, p)
        else:
            g.add_edge(p, v)
    for u, v in extra:
        if u != v:
            g.add_edge(u, v)
    return g


# --------------------------------------------------------------------------- #
# adjacency invariants
# --------------------------------------------------------------------------- #
class TestGraphInvariants:
    @FAST
    @given(edge_lists())
    def test_graph_always_internally_consistent(self, n_edges):
        n, edges = n_edges
        g = ArrayGraph(n, edges)
        assert check_graph_invariants(g) == []
        # degree sum equals twice the edge count (handshake lemma)
        assert int(g.degrees().sum()) == 2 * g.number_of_edges()

    @FAST
    @given(edge_lists())
    def test_digraph_always_internally_consistent(self, n_edges):
        n, edges = n_edges
        g = ArrayDiGraph(n, edges)
        assert check_digraph_invariants(g) == []
        assert int(g.out_degrees().sum()) == g.number_of_edges()
        assert int(g.in_degrees().sum()) == g.number_of_edges()

    @FAST
    @given(edge_lists())
    def test_adjacency_matrix_roundtrip(self, n_edges):
        n, edges = n_edges
        g = ArrayGraph(n, edges)
        mat = g.adjacency_matrix()
        assert (mat == mat.T).all() and not mat.diagonal().any()
        assert ArrayGraph(n, zip(*np.nonzero(np.triu(mat)))) == g


# --------------------------------------------------------------------------- #
# paper lemmas and structural properties
# --------------------------------------------------------------------------- #
class TestPaperInvariants:
    @FAST
    @given(connected_graphs())
    def test_lemma1_on_random_connected_graphs(self, g):
        for u in g.nodes():
            assert props.verify_lemma1(g, u)

    @FAST
    @given(connected_graphs())
    def test_neighborhoods_partition_reachable_nodes(self, g):
        u = 0
        dist = props.bfs_distances(g, u)
        max_d = int(dist.max())
        union = set()
        for i in range(1, max_d + 1):
            layer = props.neighborhood_at_distance(g, u, i)
            assert layer.isdisjoint(union)
            union |= layer
        assert union == set(range(g.n)) - {u}


# --------------------------------------------------------------------------- #
# process invariants
# --------------------------------------------------------------------------- #
class TestProcessInvariants:
    @FAST
    @given(connected_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
    def test_push_preserves_validity_and_monotonicity(self, g, seed):
        proc = PushDiscovery(g, rng=seed)
        edges_before = g.number_of_edges()
        mind_before = g.min_degree()
        proc.run(15)
        assert check_graph_invariants(g) == []
        assert g.number_of_edges() >= edges_before
        assert g.min_degree() >= mind_before

    @FAST
    @given(connected_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
    def test_pull_new_edges_connect_round_start_two_hop_pairs(self, g, seed):
        proc = PullDiscovery(g, rng=seed)
        snapshot = g.copy()
        result = proc.step()
        for u, w in result.added_edges:
            # w must be within two hops of u in the round-start graph
            assert w in props.neighborhood_within_distance(snapshot, u, 2)

    @FAST
    @given(connected_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
    def test_push_converges_on_small_graphs(self, g, seed):
        result = PushDiscovery(g, rng=seed).run_to_convergence()
        assert result.converged
        assert g.is_complete()

    @FAST
    @given(directed_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
    def test_directed_walk_reaches_exactly_the_closure(self, g, seed):
        target = transitive_closure_edges(g)
        initial = set(g.edges())
        proc = DirectedTwoHopWalk(g, rng=seed)
        result = proc.run_to_convergence()
        assert result.converged
        final = set(g.edges())
        # everything required is present, and nothing outside closure ∪ initial appears
        assert target <= final
        assert final <= (target | initial)


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
class TestStatsProperties:
    @FAST
    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.2, max_value=2.5),
    )
    def test_power_law_fit_recovers_parameters(self, c, a):
        x = np.array([8.0, 16.0, 32.0, 64.0, 128.0])
        y = c * x ** a
        fit = stats.fit_power_law(x, y)
        assert fit.exponent == pytest.approx(a, rel=1e-6, abs=1e-6)
        assert fit.coefficient == pytest.approx(c, rel=1e-6)

    @FAST
    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.0, max_value=3.0),
    )
    def test_power_log_fit_recovers_log_exponent(self, c, b):
        x = np.array([16.0, 32.0, 64.0, 128.0, 256.0])
        y = c * x * np.log(x) ** b
        fit = stats.fit_power_log_law(x, y, poly_exponent=1.0)
        assert fit.log_exponent == pytest.approx(b, rel=1e-6, abs=1e-6)
