"""The invariant checkers in ``tests/oracle.py`` pass sound graphs and catch corrupt ones."""

from oracle import check_digraph_invariants, check_graph_invariants
from repro.graphs import generators as gen
from repro.graphs import directed_generators as dgen
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph


class TestInvariantChecks:
    def test_valid_graph_has_no_problems(self):
        assert check_graph_invariants(gen.cycle_graph(8)) == []
        assert check_graph_invariants(ArrayGraph(3)) == []

    def test_corrupted_graph_detected(self):
        g = gen.path_graph(4)
        # Corrupt the internal structures deliberately.
        g._nbr[0, g._deg[0]] = 3  # asymmetric entry, not in the membership bits
        g._deg[0] += 1
        problems = check_graph_invariants(g)
        assert problems  # at least one violation reported

    def test_valid_digraph_has_no_problems(self):
        assert check_digraph_invariants(dgen.directed_cycle(6)) == []
        assert check_digraph_invariants(ArrayDiGraph(2)) == []

    def test_corrupted_digraph_detected(self):
        g = dgen.directed_path(4)
        g._out[0, g._out_deg[0]] = 3
        g._out_deg[0] += 1
        problems = check_digraph_invariants(g)
        assert problems

    def test_invariants_hold_after_many_random_additions(self, rng):
        g = ArrayGraph(15)
        for _ in range(200):
            u = int(rng.integers(15))
            v = int(rng.integers(15))
            g.add_edge(u, v) if u != v else None
        assert check_graph_invariants(g) == []
