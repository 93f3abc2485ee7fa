"""One round of the synchronous push and pull kernels samples the paper's round.

The draw-for-draw tests pin the kernels to a per-node replay
(``tests/oracle.py``); these tests pin them to the process itself.  For every connected,
non-complete graph on 4 or 5 nodes, up to isomorphism (5 + 20 = 25
graphs), one round is run ``SAMPLES`` times from the same start graph.
The next edge sets are compared with the exact next-state distribution of
:mod:`repro.analysis.nonmonotonicity`, which enumerates every node's
choices:

* a next state the exact distribution gives probability 0 fails the case;
* otherwise a χ² goodness-of-fit test runs over the states, with the
  states expected fewer than ``MIN_EXPECTED`` times pooled into one cell,
  and a case fails when its p-value is below ``ALPHA`` (0.001 over the
  50 cases, Bonferroni-corrected).

Every case draws from ``np.random.default_rng(SEED)``; the seed was fixed
before any result was seen.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from repro.analysis.nonmonotonicity import _pull_round_distribution, _push_round_distribution
from repro.core.pull import PullDiscovery
from repro.core.push import PushDiscovery
from repro.graphs.array_adjacency import ArrayGraph

SEED = 20120614
SAMPLES = 1000
MIN_EXPECTED = 5.0
PROCESSES = {
    "push": (PushDiscovery, _push_round_distribution),
    "pull": (PullDiscovery, _pull_round_distribution),
}
CASES = 2 * 25
ALPHA = 1e-3 / CASES


def _connected(n, edges):
    rows = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for v in rows[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def connected_noncomplete_graphs(n):
    """One edge list per isomorphism class of connected, non-complete ``n``-node graphs."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen, graphs = set(), []
    for size in range(n - 1, len(pairs)):
        for edges in itertools.combinations(pairs, size):
            if not _connected(n, edges):
                continue
            canon = min(tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges)) for p in perms)
            if canon not in seen:
                seen.add(canon)
                graphs.append(edges)
    return graphs


GRAPHS = [(n, edges) for n in (4, 5) for edges in connected_noncomplete_graphs(n)]


def chi2_tail(stat, df):
    """``P(X ≥ stat)`` for ``X ~ χ²(df)``: the regularized upper gamma ``Q(df/2, stat/2)``.

    A power series for ``P = 1 - Q`` below ``a + 1``, Lentz's continued
    fraction for ``Q`` above (Numerical Recipes §6.2).
    """
    a, x = df / 2.0, stat / 2.0
    if x <= 0.0:
        return 1.0
    scale = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        k = a
        while term > total * 1e-16:
            k += 1.0
            term *= x / k
            total += term
        return max(0.0, 1.0 - scale * total)
    tiny = 1e-300
    b, c, d = x + 1.0 - a, 1.0 / tiny, 1.0 / (x + 1.0 - a)
    frac, i = d, 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        frac *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return scale * frac


def chi2_pvalue(counts, exact):
    """χ² p-value of observed next-state ``counts`` against the ``exact`` distribution."""
    samples = sum(counts.values())
    cells = [(samples * p, counts.get(state, 0)) for state, p in exact.items()]
    cells.sort()
    big = [cell for cell in cells if cell[0] >= MIN_EXPECTED]
    small = [cell for cell in cells if cell[0] < MIN_EXPECTED]
    if small:
        pooled = (sum(e for e, _ in small), sum(o for _, o in small))
        if pooled[0] < MIN_EXPECTED and big:
            e, o = big.pop(0)
            pooled = (pooled[0] + e, pooled[1] + o)
        big.append(pooled)
    if len(big) < 2:
        return 1.0
    stat = sum((o - e) ** 2 / e for e, o in big)
    return chi2_tail(stat, len(big) - 1)


def test_the_enumeration_finds_every_class():
    """4 and 5 nodes have 6 and 21 connected graphs; the complete one is dropped."""
    assert Counter(n for n, _ in GRAPHS) == {4: 5, 5: 20}
    assert len(GRAPHS) * len(PROCESSES) == CASES


def test_chi2_tail_matches_closed_forms():
    """df=2 is ``exp(-x/2)``; df=1 is ``erfc(sqrt(x/2))``; both branches are hit."""
    for x in (0.1, 1.0, 3.0, 10.0, 40.0):
        assert chi2_tail(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-9)
        assert chi2_tail(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-9)
    assert chi2_tail(0.0, 5) == 1.0


@pytest.mark.parametrize("process", sorted(PROCESSES))
@pytest.mark.parametrize(
    "n, edges", GRAPHS, ids=[f"n{n}-{'_'.join(f'{u}{v}' for u, v in e)}" for n, e in GRAPHS]
)
def test_one_round_matches_the_exact_distribution(process, n, edges):
    cls, round_distribution = PROCESSES[process]
    exact = round_distribution(n, frozenset(edges))
    start = ArrayGraph(n, edges)
    rng = np.random.default_rng(SEED)
    counts = Counter()
    for _ in range(SAMPLES):
        proc = cls(start.copy(), rng=rng)
        proc.step()
        counts[frozenset(proc.graph.edges())] += 1
    impossible = set(counts) - set(exact)
    assert not impossible, f"next states of probability 0: {sorted(map(sorted, impossible))}"
    p = chi2_pvalue(counts, exact)
    assert p >= ALPHA, f"chi2 p-value {p:.3g} below {ALPHA:.3g}"
