"""Degree-sequence reduction, graphicality tests, residue."""

import itertools
import random

import pytest
from hypothesis import given

import hhresidue.degseq
from hhresidue.degseq import hh_reduce, is_graphical, residue
from hhresidue.graphs import Graph
from hhresidue.harness import GraphRecord

from oracles import is_graphical_erdos_gallai
from strategies import complete, cycle, degree_term_lists, graphs


def step_subtracting_last_ties(seq):
    """Alternative step: remove a largest term, subtract 1 from the t
    largest terms choosing the LAST positions among ties."""
    d = sorted(seq, reverse=True)
    t, rest = d[0], list(d[1:])
    if t:
        threshold = rest[t - 1]
        chosen = {i for i, x in enumerate(rest) if x > threshold}
        ties = [i for i, x in enumerate(rest) if x == threshold]
        need = t - len(chosen)
        chosen.update(ties[len(ties) - need :])
        for i in chosen:
            rest[i] -= 1
    return tuple(sorted(rest, reverse=True))


def random_graph(rng, n, avg_degree):
    """A random graph with n * avg_degree / 2 distinct edges."""
    edges = set()
    while len(edges) < n * avg_degree // 2:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)


def long_sequences(seed):
    """Shuffled sequences of 300..3,000 terms with their kind: "graphical"
    (random-graph degrees), "odd-sum" (one of those terms raised by one) and
    "overfull" (k hubs just over the Erdos-Gallai bound at k, over a
    graphical rest; the sum is even, so only a later step of the reduction
    fails)."""
    rng = random.Random(seed)
    out = []
    for n in (300, 1000, 3000):
        out.append(("graphical", list(random_graph(rng, n, 8).degrees)))
        odd = list(random_graph(rng, n, 6).degrees)
        odd[rng.randrange(n)] += 1
        out.append(("odd-sum", odd))
        k = n // 4 & ~1  # even, so the hubs add an even amount to the sum
        rest = list(random_graph(rng, n - k, 6).degrees)
        slack = sum(min(d, k) for d in rest)
        hub = k + slack // k  # k * hub > k(k-1) + slack
        out.append(("overfull", [hub] * k + rest))
    for _, terms in out:
        rng.shuffle(terms)
    return out


# --- hh_reduce ---------------------------------------------------------------


def test_step_worked_values():
    assert hh_reduce((3, 2, 2, 2, 2, 1))[1] == (2, 1, 1, 1, 1)
    assert hh_reduce((2, 1, 1, 1, 1))[1] == (1, 1, 0, 0)


def test_step_sorts_input():
    assert hh_reduce((1, 2, 3, 2, 2, 2))[:2] == ((3, 2, 2, 2, 2, 1), (2, 1, 1, 1, 1))


def test_step_on_zeros():
    """A step leaves zero terms as they are, and no step is taken once
    every term is zero."""
    assert hh_reduce((1, 1, 0, 0)) == ((1, 1, 0, 0), (0, 0, 0))
    assert hh_reduce((2, 1, 1, 0, 0)) == ((2, 1, 1, 0, 0), (0, 0, 0, 0))
    assert hh_reduce((0, 0, 0)) == ((0, 0, 0),)


def test_step_rejects_empty_and_oversized_term():
    """No step is taken on an empty sequence or on one whose largest term
    exceeds its number of other terms; the oversized ones are not graphical."""
    assert hh_reduce(()) == ((),)
    for stuck in ((3, 1), (1,)):
        assert hh_reduce(stuck) == (stuck,)
        assert not is_graphical(stuck)
        with pytest.raises(ValueError):
            residue(stuck)


def test_reduce_rejects_negative_nonint_or_bool():
    for terms in ((2, -1, 1), (2.0, 1, 1), (True, 1)):
        with pytest.raises(ValueError):
            hh_reduce(terms)


@given(degree_term_lists(max_len=8, max_term=20))
def test_step_multiset_invariant_under_tie_breaking(terms):
    """Every step of the trace matches a step that breaks ties at the last
    positions, and the last sequence shows one of the three endings. Terms
    above n - 1 are drawn too, so every ending occurs."""
    steps = hh_reduce(terms)
    assert steps[0] == tuple(sorted(terms, reverse=True))
    for a, b in zip(steps, steps[1:]):
        assert b == step_subtracting_last_ties(a)
    last = steps[-1]
    graphical = is_graphical_erdos_gallai(terms)
    if not any(last):
        assert graphical
    elif last[-1] < 0:
        assert not graphical and len(steps) > 1 and min(steps[-2]) >= 0
    else:
        assert not graphical and steps == (last,) and last[0] > len(last) - 1
    # no step before the last one ends the run
    assert all(0 < d[0] < len(d) and d[-1] >= 0 for d in steps[:-1])


def test_reduce_worked_example_trace():
    assert hh_reduce((3, 2, 2, 2, 2, 1)) == (
        (3, 2, 2, 2, 2, 1),
        (2, 1, 1, 1, 1),
        (1, 1, 0, 0),
        (0, 0, 0),
    )


def test_reduce_already_zero():
    assert hh_reduce((0, 0, 0, 0)) == ((0, 0, 0, 0),)
    assert hh_reduce((0, 0, 0)) == ((0, 0, 0),)


def test_reduce_negative_term():
    steps = hh_reduce((3, 3, 1, 1))
    assert steps == ((3, 3, 1, 1), (2, 0, 0), (-1, -1))
    # a step can go negative with a first term that is not
    assert hh_reduce((3, 3, 3, 1))[-1] == (1, -1)
    assert hh_reduce((2, 1, 0))[-1] == (0, -1)


def test_reduce_step_impossible():
    for stuck in ((3, 1), (1,), (4, 1, 1, 1)):
        assert hh_reduce(stuck) == (stuck,)


def test_reduce_empty_sequence():
    assert hh_reduce(()) == ((),)


def test_reduce_steps_shrink_by_one():
    steps = hh_reduce((4, 3, 3, 2, 2, 2))
    for a, b in zip(steps, steps[1:]):
        assert len(b) == len(a) - 1


# --- graphicality ------------------------------------------------------------


def test_is_graphical_examples():
    assert is_graphical((3, 2, 2, 2, 2, 1))
    assert not is_graphical((1,))
    assert is_graphical((2, 2, 2, 2, 2))
    assert cycle(5).degree_sequence() == (2, 2, 2, 2, 2)


def test_erdos_gallai_examples():
    assert is_graphical_erdos_gallai((3, 3, 3, 3))
    assert complete(4).degree_sequence() == (3, 3, 3, 3)
    assert not is_graphical_erdos_gallai((3, 1))
    assert not is_graphical_erdos_gallai((3, 3, 1, 1))
    assert not is_graphical((3, 3, 1, 1))


def test_oracles_agree_exhaustively_small():
    for length in range(7):
        for terms in itertools.combinations_with_replacement(range(6), length):
            d = tuple(sorted(terms, reverse=True))
            assert is_graphical(d) == is_graphical_erdos_gallai(d), d


def test_oracles_agree_exhaustively_full_range():
    # every nonincreasing sequence of length <= 10 with terms <= 9
    for length in range(11):
        for terms in itertools.combinations_with_replacement(range(10), length):
            d = tuple(sorted(terms, reverse=True))
            graphical = is_graphical(d)
            assert graphical == is_graphical_erdos_gallai(d), d
            if graphical:
                assert residue(d) == len(hh_reduce(d)[-1]), d


@given(degree_term_lists())
def test_oracles_agree_on_random_inputs(terms):
    assert is_graphical(terms) == is_graphical_erdos_gallai(terms)


@given(graphs())
def test_degree_sequences_of_graphs_are_graphical(g):
    assert is_graphical(g.degree_sequence())
    assert is_graphical_erdos_gallai(g.degree_sequence())


# --- residue -----------------------------------------------------------------


def test_residue_examples():
    assert residue((3, 2, 2, 2, 2, 1)) == 3
    assert residue((0,) * 7) == 7
    assert residue((3, 3, 3, 3)) == 1
    assert residue(()) == 0


def test_residue_rejects_non_graphical():
    with pytest.raises(ValueError):
        residue((3, 3, 1, 1))


@given(graphs(min_n=1))
def test_residue_bounds_for_graphs(g):
    r = residue(g.degree_sequence())
    assert 1 <= r <= g.n


# --- histogram reduction against the trace and third-party oracles ----------


@given(degree_term_lists(max_term=20))
def test_histogram_reduction_matches_trace(terms):
    # terms above n - 1 are drawn too, so every ending of the trace occurs
    steps = hh_reduce(terms)
    graphical = not any(steps[-1])
    assert is_graphical(terms) == graphical
    if graphical:
        assert residue(terms) == len(steps[-1])
    else:
        with pytest.raises(ValueError) as err:
            residue(terms)
        assert str(err.value) == f"sequence {steps[0]} is not graphical"


def test_huge_term_is_rejected_without_sizing_by_it():
    assert not is_graphical((10**20, 1))
    with pytest.raises(ValueError):
        residue((10**20, 1))


def test_residue_never_runs_the_trace(monkeypatch):
    """residue, is_graphical and the record's residue answer on a
    1,500-term sequence with hh_reduce disabled."""
    g = random_graph(random.Random(1500), 1500, 8)
    d = g.degree_sequence()
    want = len(hh_reduce(d)[-1])

    def disabled(*args):
        raise AssertionError("the trace was run")

    monkeypatch.setattr(hhresidue.degseq, "hh_reduce", disabled)
    assert is_graphical(d)
    assert residue(d) == want
    assert GraphRecord(g).residue == want


def test_is_graphical_matches_networkx():
    nx = pytest.importorskip("networkx")
    small = [
        (None, list(terms))
        for length in range(7)
        for terms in itertools.combinations_with_replacement(range(6), length)
    ]
    for kind, terms in small + long_sequences(4):
        ours = is_graphical(terms)
        assert ours == nx.is_valid_degree_sequence_havel_hakimi(terms), terms
        assert ours == nx.is_valid_degree_sequence_erdos_gallai(terms), terms
        if kind is not None:
            assert ours == (kind == "graphical"), kind
