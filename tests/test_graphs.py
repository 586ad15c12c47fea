"""Package code: Graph construction, the bit iterator, the enumeration's
vertex invariant and matcher (through oracles.is_isomorphic) and the
scale bounds; also the induced-subgraph helper that other tests use as a
second route. The builders of tests/strategies.py are tested in
tests/test_catalog.py."""

import itertools
import re

import pytest
from hypothesis import given
import hypothesis.strategies as st

from hhresidue.enumeration import enumerate_graphs, vertex_invariants
from hhresidue.graphs import (
    SCALE_MAX_N,
    Graph,
    iter_bits,
)
from hhresidue.independence import (
    independence_number,
    independence_number_bitmask,
    independence_number_without,
    maxine_all_branches,
)
from hhresidue.recognition import is_strong_havel_hakimi_definitional

from oracles import induced_subgraph, invariant_triples, is_isomorphic
from strategies import (
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    graphs,
    graphs_with_permutation,
    path,
    relabel,
)


def all_labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def brute_isomorphic(g, h):
    """Permutation-search oracle, independent of the library routines."""
    if g.n != h.n:
        return False
    return any(relabel(g, perm) == h for perm in itertools.permutations(range(g.n)))


# --- construction -----------------------------------------------------------


def bits_ref(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


# the edges of the three nine-bit chunk tables and of the bit loop above them
@pytest.mark.parametrize(
    "mask",
    [
        0,
        1,
        511,
        512,
        513,
        (1 << 20) + 5,
        (1 << 18) - 1,
        1 << 18,
        (1 << 27) - 1,
        1 << 27,
        (1 << 27) + (1 << 18) + 1,
        0xA55A5A5A5A,
    ],
)
def test_iter_bits_examples(mask):
    bits = iter_bits(mask)
    assert type(bits) is tuple
    assert bits == bits_ref(mask)


@given(st.integers(0, (1 << 64) - 1))
def test_iter_bits_is_ascending_tuple_of_set_bits(mask):
    bits = iter_bits(mask)
    assert type(bits) is tuple
    assert bits == bits_ref(mask)


def test_from_edges_path():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert g.degree_sequence() == (2, 2, 2, 1, 1)
    assert g == path(5)


def test_from_edges_edgeless():
    g = Graph(3, [])
    assert g.degrees == (0, 0, 0)
    assert len(g.edges()) == 0


def test_from_edges_dumbbell():
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
    assert g.degree_sequence() == (3, 3, 2, 2, 2, 2)
    assert is_isomorphic(g, Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3)]))


def test_from_edges_duplicates_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert len(g.edges()) == 1


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(2, [(-1, 0)])


def test_from_edges_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_graph_is_immutable():
    g = path(3)
    with pytest.raises(AttributeError):
        g.n = 7
    with pytest.raises(AttributeError):
        del g.adj
    with pytest.raises(AttributeError):
        g.degrees = ()


# --- induced subgraphs ------------------------------------------------------


def test_induced_c5_minus_any_vertex_is_p4():
    c5 = cycle(5)
    for drop in range(5):
        sub = induced_subgraph(c5, [v for v in range(5) if v != drop])
        assert is_isomorphic(sub, path(4))


def test_induced_identity():
    g = cycle(4)
    assert induced_subgraph(g, range(4)) == g


def test_induced_k23_small_side():
    sub = induced_subgraph(complete_bipartite(2, 3), [0, 1])
    assert sub == Graph(2)


def test_induced_rejects_out_of_range():
    with pytest.raises(ValueError):
        induced_subgraph(path(3), [0, 5])


# --- isomorphism -----------------------------------------------------------


def test_canonical_on_all_4_vertex_graphs():
    """Group the 64 labeled graphs by the brute-force permutation oracle:
    is_isomorphic must hold within each of the 11 groups and fail across
    them."""
    groups = []
    for g in all_labeled_graphs(4):
        for group in groups:
            if brute_isomorphic(g, group[0]):
                group.append(g)
                break
        else:
            groups.append([g])
    assert len(groups) == 11
    for i, group in enumerate(groups):
        assert all(is_isomorphic(group[0], g) for g in group)
        for other in groups[i + 1 :]:
            assert not any(is_isomorphic(g, h) for g in group for h in other)


@given(graphs_with_permutation(max_n=7))
def test_is_isomorphic_accepts_relabelings(gp):
    g, perm = gp
    assert is_isomorphic(g, relabel(g, perm))


@given(graphs(max_n=6), graphs(max_n=6))
def test_is_isomorphic_matches_canonical(g, h):
    assert is_isomorphic(g, h) == brute_isomorphic(g, h)


def degree_profiles(g):
    """Sorted (degree, sorted neighbour degrees) per vertex: the invariant
    without its triangle counts."""
    return sorted(inv[0::2] for inv in invariant_triples(g))


@pytest.mark.parametrize(
    "g, h",
    [
        (cycle(6), disjoint_union(complete(3), complete(3))),
        (complement(cycle(6)), complete_bipartite(3, 3)),
    ],
    ids=["C6-vs-2K3", "prism-vs-K33"],
)
def test_triangles_separate_graphs_with_equal_degree_profiles(g, h):
    assert degree_profiles(g) == degree_profiles(h)
    assert sorted(vertex_invariants(g)) != sorted(vertex_invariants(h))
    assert not is_isomorphic(g, h)
    assert not brute_isomorphic(g, h)


def test_empty_graphs_are_isomorphic():
    assert vertex_invariants(Graph(0)) == []
    assert is_isomorphic(Graph(0), Graph(0))


def test_vertex_invariants_examples():
    # paw: triangle 0-1-2 with pendant 3 on 0
    paw = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    assert invariant_triples(paw) == [
        (3, 1, (1, 2, 2)),
        (2, 1, (2, 3)),
        (2, 1, (2, 3)),
        (1, 0, (3,)),
    ]
    # degree, triangles (two hex digits), then one hex digit per neighbour
    # degree 0..15: F less the neighbours of that degree
    assert vertex_invariants(paw) == [
        0x3_01_FEDF_FFFF_FFFF_FFFF,
        0x2_01_FFEE_FFFF_FFFF_FFFF,
        0x2_01_FFEE_FFFF_FFFF_FFFF,
        0x1_00_FFFE_FFFF_FFFF_FFFF,
    ]


@given(graphs_with_permutation(max_n=7))
def test_vertex_invariants_follow_relabelings(gp):
    g, perm = gp
    moved = vertex_invariants(relabel(g, perm))
    assert all(moved[perm[v]] == inv for v, inv in enumerate(vertex_invariants(g)))


# --- scale bounds -----------------------------------------------------------

# (table entry, kernel called with an order, lower end of the range or None
# when the kernel takes a graph, which has no order below 0)
SCALE_CASES = [
    pytest.param("alpha", lambda n: independence_number(complete(n)), None, id="alpha"),
    pytest.param(
        "subset sweep", lambda n: independence_number_bitmask(complete(n)), None,
        id="subset-sweep-alpha",
    ),
    pytest.param("alpha", lambda n: independence_number_without(complete(n), 0), None, id="alpha-without"),
    pytest.param("maxine branching", lambda n: maxine_all_branches(complete(n)), None, id="maxine"),
    pytest.param(
        "definitional", lambda n: is_strong_havel_hakimi_definitional(complete(n)), None,
        id="definitional",
    ),
    pytest.param("enumeration", enumerate_graphs, 1, id="enumeration"),
]


@pytest.mark.parametrize("what, kernel, lo", SCALE_CASES)
def test_scale_bound(what, kernel, lo):
    """Each kernel accepts the order its table entry allows and raises the
    one message format just outside its range."""
    hi = SCALE_MAX_N[what]
    kernel(hi)
    for n in (hi + 1,) if lo is None else (lo - 1, hi + 1):
        message = f"{what}: order {n} outside supported range {lo or 0}..{hi}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            kernel(n)


def test_scale_cases_cover_the_kernel_bounds():
    # "class scans" bounds only analyze's columns (tests/test_cli.py)
    covered = {case.values[0] for case in SCALE_CASES}
    assert covered == set(SCALE_MAX_N) - {"class scans"}
