"""The forbidden-subgraph table: counts, degree sequences, distinctness,
and each literal edge list against a construction from named graphs,
together with the test builders (tests/strategies.py) that the
constructions use."""

import itertools

import pytest
from hypothesis import given

from hhresidue.graphs import Graph
from hhresidue.recognition import FORBIDDEN_SUBGRAPHS

from oracles import is_isomorphic
from strategies import complement, complete, complete_bipartite, cycle, disjoint_union, domino, graphs, path

# (vertices, edges, degree sequence) for every forbidden member.
FORBIDDEN_SHAPES = {
    "P5": (5, 4, (2, 2, 2, 1, 1)),
    "4-pan": (5, 5, (3, 2, 2, 2, 1)),
    "K_{2,3}": (5, 6, (3, 3, 2, 2, 2)),
    "K_{2,3}+": (5, 7, (3, 3, 3, 3, 2)),
    "kite": (5, 6, (3, 3, 3, 2, 1)),
    "2P3": (6, 4, (2, 2, 1, 1, 1, 1)),
    "P3+K3": (6, 5, (2, 2, 2, 2, 1, 1)),
    "stool": (6, 6, (3, 3, 2, 2, 1, 1)),
    "co-domino": (6, 8, (3, 3, 3, 3, 2, 2)),
}


def test_forbidden_catalog_is_complete():
    assert list(FORBIDDEN_SUBGRAPHS) == list(FORBIDDEN_SHAPES)


@pytest.mark.parametrize("name", sorted(FORBIDDEN_SHAPES))
def test_forbidden_member_shape(name):
    n, m, degseq = FORBIDDEN_SHAPES[name]
    g = FORBIDDEN_SUBGRAPHS[name]
    assert g.n == n
    assert len(g.edges()) == m
    assert g.degree_sequence() == degseq


# The same nine graphs with the same labels, built from named graphs.
CONSTRUCTIONS = {
    "P5": path(5),
    "4-pan": Graph(5, cycle(4).edges() + [(0, 4)]),
    "K_{2,3}": complete_bipartite(2, 3),
    "K_{2,3}+": Graph(5, complete_bipartite(2, 3).edges() + [(2, 3)]),
    "kite": Graph(5, [e for e in complete(4).edges() if e != (2, 3)] + [(2, 4)]),
    "2P3": disjoint_union(path(3), path(3)),
    "P3+K3": disjoint_union(path(3), complete(3)),
    "stool": Graph(6, disjoint_union(complete(3), complete_bipartite(1, 2)).edges() + [(0, 3)]),
    "co-domino": complement(domino()),
}


@pytest.mark.parametrize("name", list(CONSTRUCTIONS))
def test_forbidden_table_matches_construction(name):
    assert FORBIDDEN_SUBGRAPHS[name] == CONSTRUCTIONS[name]


def test_forbidden_members_pairwise_distinct():
    members = list(FORBIDDEN_SUBGRAPHS.values())
    assert len(members) == 9
    for g, h in itertools.combinations(members, 2):
        assert not is_isomorphic(g, h)


def test_k23_plus_is_complement_of_k2_plus_p3():
    assert is_isomorphic(FORBIDDEN_SUBGRAPHS["K_{2,3}+"], complement(disjoint_union(complete(2), path(3))))


def test_co_domino_is_complement_of_domino():
    assert FORBIDDEN_SUBGRAPHS["co-domino"] == complement(domino())
    assert domino().degree_sequence() == (3, 3, 2, 2, 2, 2)


def test_parameterized_constructors_validate():
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        path(0)
    with pytest.raises(ValueError):
        complete_bipartite(0, 3)
    assert path(1) == complete(1)


# --- the builders that the constructions above use --------------------------


def test_complement_k3():
    assert complement(complete(3)) == Graph(3)


@given(graphs())
def test_complement_involution(g):
    assert complement(complement(g)) == g


@given(graphs())
def test_complement_degrees(g):
    co = complement(g)
    assert all(co.degrees[v] == g.n - 1 - g.degrees[v] for v in range(g.n))


def test_disjoint_union_examples():
    both = disjoint_union(path(3), path(3))
    assert both.degree_sequence() == (2, 2, 1, 1, 1, 1)
    assert disjoint_union(path(3), Graph(0)) == path(3)
