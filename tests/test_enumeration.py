"""Isomorphism-class generation."""

import itertools

import pytest

from hhresidue.catalog import complete, cycle, path
from hhresidue.enumeration import enumerate_graphs, isomorphism_class_count_labeled
from hhresidue.graphs import induced_subgraph, is_isomorphic, vertex_invariants

from strategies import graphs_up_to


def test_counts_up_to_6():
    assert [len(enumerate_graphs(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]


def test_labeled_oracle_agrees_up_to_4():
    for n in range(1, 5):
        assert isomorphism_class_count_labeled(n) == len(enumerate_graphs(n))


def test_representatives_pairwise_non_isomorphic():
    reps = enumerate_graphs(4)
    for g, h in itertools.combinations(reps, 2):
        assert not is_isomorphic(g, h)


def test_classes_match_networkx_atlas_up_to_7():
    """Pair the classes of order 1..7 one-to-one with the 1,252 nonempty
    graphs of networkx's atlas, matched by nx.is_isomorphic within
    degree-sequence buckets."""
    nx = pytest.importorskip("networkx")
    atlas: dict[tuple[int, ...], list] = {}
    for a in nx.graph_atlas_g():
        if a.number_of_nodes():
            degseq = tuple(sorted((d for _, d in a.degree()), reverse=True))
            atlas.setdefault(degseq, []).append(a)
    assert sum(map(len, atlas.values())) == 1252
    reps = list(graphs_up_to(7))
    assert len(reps) == 1252
    for g in reps:
        ours = nx.Graph(g.edges())
        ours.add_nodes_from(range(g.n))
        bucket = atlas.get(g.degree_sequence(), [])
        hits = [i for i, a in enumerate(bucket) if nx.is_isomorphic(ours, a)]
        assert len(hits) == 1, g
        bucket.pop(hits[0])


def test_known_graphs_are_covered():
    for target in (cycle(5), path(5), complete(5)):
        assert sum(1 for g in enumerate_graphs(5) if is_isomorphic(g, target)) == 1


def test_deterministic_and_cached():
    a = enumerate_graphs(5)
    b = enumerate_graphs(5)
    assert a is b
    assert a == list(graphs_up_to(5))[-34:]


def test_prefix_is_a_representative():
    """What the definitional memo's hits rest on: each representative of
    order 2..7, less its last vertex, is a representative of order n-1
    with the same labels."""
    for n in range(2, 8):
        smaller = set(enumerate_graphs(n - 1))
        for g in enumerate_graphs(n):
            assert induced_subgraph(g, range(n - 1)) in smaller, g


def test_new_vertex_has_least_invariant():
    """The augmentation filter: each representative's last vertex, the one
    attached to its parent, has the least vertex invariant."""
    for n in range(2, 9):
        for g in enumerate_graphs(n):
            inv = vertex_invariants(g)
            assert inv[-1] == min(inv), g


def test_each_candidate_invariant_is_computed_once(monkeypatch):
    """Building orders 2..6 from a cold cache computes vertex_invariants
    once per candidate: once per parent and neighbourhood that leaves the
    new vertex of minimum degree. Every candidate is a distinct labelled
    graph, since its parent is its induced subgraph on the old vertices."""
    from hhresidue import enumeration

    monkeypatch.setattr(enumeration, "_cache", {})
    seen = []

    def counting(g):
        seen.append(g)
        return vertex_invariants(g)

    monkeypatch.setattr(enumeration, "vertex_invariants", counting)
    enumerate_graphs(6)
    expected = 0
    for n in range(2, 7):
        for g in enumeration._cache[n - 1]:
            for pattern in range(1 << (n - 1)):
                new_degree = pattern.bit_count()
                degrees = [d + (pattern >> u & 1) for u, d in enumerate(g.degrees)]
                expected += all(new_degree <= d for d in degrees)
    assert len(seen) == len(set(seen)) == expected
    assert set(g for n in range(2, 7) for g in enumeration._cache[n]) <= set(seen)
