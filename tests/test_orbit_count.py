"""Completeness of the enumeration by orbit counting. A class G of order n
holds n!/|Aut G| labelled graphs, so the sum over the representatives of
order n is the number of labelled graphs, 2^(n(n-1)/2) (Harary and Palmer,
Graphical Enumeration, 1973). A lost class makes the sum fall short, and
so does a matcher that wrongly says True, since it merges two classes; a
duplicated class makes it overshoot. |Aut G| comes from
oracles.automorphism_count, which shares nothing with the enumeration's
vertex invariant or its matcher."""

import itertools
from fractions import Fraction
from math import factorial

import pytest

from hhresidue.enumeration import enumerate_graphs
from hhresidue.graphs import Graph
from hhresidue.recognition import is_threshold

from oracles import automorphism_count, to_networkx
from strategies import complete, cycle, path, pentagonal_prism, petersen


def _labelled_count(reps) -> Fraction:
    """The number of labelled graphs isomorphic to one of these
    representatives, all of one order."""
    return sum((Fraction(factorial(g.n), automorphism_count(g.adj)) for g in reps), Fraction(0))


def _labelled_threshold_counts(n_max: int) -> list[Fraction]:
    """n! times the coefficient of x^n in (1 - x)e^x / (2 - e^x), for
    n = 0..n_max: the number of labelled threshold graphs on n vertices
    (Beissinger and Peled, Graphs and Combinatorics 3, 1987; OEIS A005840),
    expanded by power-series division."""
    exp = [Fraction(1, factorial(k)) for k in range(n_max + 1)]
    num = [exp[k] - (exp[k - 1] if k else 0) for k in range(n_max + 1)]
    den = [2 - exp[0], *(-e for e in exp[1:])]
    quot: list[Fraction] = []
    for k in range(n_max + 1):
        quot.append((num[k] - sum(den[j] * quot[k - j] for j in range(1, k + 1))) / den[0])
    return [factorial(k) * q for k, q in enumerate(quot)]


def test_orbit_count_gives_every_labelled_graph_up_to_8():
    for n in range(1, 9):
        assert _labelled_count(enumerate_graphs(n)) == 2 ** (n * (n - 1) // 2), n


def test_orbit_count_gives_every_labelled_threshold_graph_up_to_8():
    want = _labelled_threshold_counts(8)
    for n in range(1, 9):
        assert _labelled_count(g for g in enumerate_graphs(n) if is_threshold(g)) == want[n], n


def test_threshold_series_counts_labelled_threshold_graphs_up_to_5():
    """The series against brute force over every labelled graph."""
    want = _labelled_threshold_counts(5)
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        count = sum(
            is_threshold(Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1]))
            for mask in range(1 << len(pairs))
        )
        assert count == want[n], n


@pytest.mark.parametrize(
    "g, want",
    [
        (Graph(0), 1),
        (Graph(4), 24),
        (complete(6), 720),
        (cycle(7), 14),
        (path(5), 2),
        (petersen(), 120),
        (pentagonal_prism(), 20),
    ],
    ids=["K0", "4K1", "K6", "C7", "P5", "Petersen", "prism"],
)
def test_automorphism_count_of_known_graphs(g, want):
    assert automorphism_count(g.adj) == want


def test_automorphism_count_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    for g in [*(g for n in range(1, 7) for g in enumerate_graphs(n)), petersen(), pentagonal_prism()]:
        ng = to_networkx(g)
        assert automorphism_count(g.adj) == sum(1 for _ in GraphMatcher(ng, ng).isomorphisms_iter()), g
