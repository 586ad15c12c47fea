"""Isomorphism-class generation."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given

from hhresidue import enumeration
from hhresidue.enumeration import (
    _child_invariants,
    _lower_twins,
    _match,
    _min_degree_patterns,
    _twin_orbit_patterns,
    enumerate_graphs,
    vertex_invariants,
)
from hhresidue.graph6 import emit_graph6
from hhresidue.graphs import SCALE_MAX_N, Graph, iter_bits

from oracles import induced_subgraph, invariant_triples, is_isomorphic, isomorphism_class_count_labeled, to_networkx
from strategies import (
    complete,
    cycle,
    degree_term_lists,
    graphs,
    graphs_up_to,
    path,
    pentagonal_prism,
    petersen,
    relabel,
)


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
        ours = to_networkx(g)
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


# sha256 of the representatives' graph6 lines, joined by newlines, in
# generation order, per order 1..8
REPS_SHA256 = {
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1",
    3: "b16815a25e62fc8532db4ef92a867fbaf4cfd03494c55ddbe0f94ffe8989ba12",
    4: "00f3b50aca2d613b06e342d2f50f62d63ec60609ba317b8d7fc3fbd0f62de75b",
    5: "e2f3005c15558b10c0511937c6a93e725c87230095c9cca6d0ea497e672ec2a9",
    6: "608ec093b7ef42fdcfdbc74ea0118808ef51c1dedaa4c731f88e64491acde95f",
    7: "2a7d4280c2ed8d6ed496814ef2a067bd6d4c70314a781f2f87d42b4c8a262792",
    8: "75f6a7317c09f8e05d3277a242e8aa552936fb2e0f188e50915ce4e526e17d2f",
}


def test_representatives_digest():
    """The representatives, their labels and their order, pinned per order."""
    for n, digest in REPS_SHA256.items():
        text = "\n".join(emit_graph6(g) for g in enumerate_graphs(n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, n


def test_matcher_calls_per_order(monkeypatch):
    """The isomorphism matcher runs as often as pinned at orders 2..8 when
    built from a cold cache. The twin rule drops candidates before the
    matcher sees them; without it the counts were 0, 0, 1, 5, 26, 126,
    912, 8031. The per-parent buckets keep a candidate with a unique least
    key from meeting other parents' children; with shared buckets alone,
    order 8 made 2947 calls."""
    monkeypatch.setattr(enumeration, "_cache", {})
    calls = []

    def counting(*args):
        calls.append(args)
        return _match(*args)

    monkeypatch.setattr(enumeration, "_match", counting)
    per_order = []
    for n in range(1, 9):
        before = len(calls)
        enumerate_graphs(n)
        per_order.append(len(calls) - before)
    assert per_order == [0, 0, 0, 0, 3, 22, 265, 2885]


def _petersen_pairs():
    """Petersen against the pentagonal prism, then against five seeded
    relabellings of itself, each with whether the two are isomorphic."""
    rng = random.Random(0)
    yield pentagonal_prism(), False
    for _ in range(5):
        yield relabel(petersen(), rng.sample(range(10), 10)), True


def test_match_when_every_key_is_equal():
    """Petersen and the pentagonal prism are cubic and triangle-free, so
    every vertex of both has the same key and the keys narrow the search
    not at all. They are not isomorphic, and Petersen is isomorphic to
    each relabelling of itself."""
    g = petersen()
    ig = vertex_invariants(g)
    for h, want in _petersen_pairs():
        ih = vertex_invariants(h)
        assert len(set(ig + ih)) == 1
        assert _match(g.adj, ig, h.adj, ih) is want
        assert _match(h.adj, ih, g.adj, ig) is want


def test_match_when_every_key_is_equal_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    g = to_networkx(petersen())
    for h, want in _petersen_pairs():
        assert nx.is_isomorphic(g, to_networkx(h)) is want


def _old_filter(degrees):
    """The neighbourhood masks that leave a new vertex of minimum degree,
    found by testing every mask."""
    return [
        p
        for p in range(1 << len(degrees))
        if all(p.bit_count() <= d + (p >> u & 1) for u, d in enumerate(degrees))
    ]


def test_min_degree_patterns_of_every_parent():
    for g in graphs_up_to(7):
        assert _min_degree_patterns(g.degrees) == _old_filter(g.degrees), g


@given(degree_term_lists(max_len=9, max_term=9).filter(bool))
def test_min_degree_patterns_of_any_degrees(degrees):
    assert _min_degree_patterns(tuple(degrees)) == _old_filter(degrees)


def _child(g, pattern):
    """g plus a new vertex g.n adjacent to the vertices of the pattern."""
    return Graph(g.n + 1, g.edges() + [(u, g.n) for u in iter_bits(pattern)])


def _check_children(g):
    """Each min-degree child's derived keys are the vertex_invariants of
    the child, or None exactly when the new vertex's key is not least."""
    g_key = vertex_invariants(g)
    for p in _min_degree_patterns(g.degrees):
        key = vertex_invariants(_child(g, p))
        assert _child_invariants(g.adj, g.degrees, g_key, p) == (key if key[-1] == min(key) else None), (g, p)


def test_child_invariants_of_every_parent():
    for g in graphs_up_to(6):
        _check_children(g)


@given(graphs(min_n=1, max_n=8))
def test_child_invariants_of_any_graph(g):
    _check_children(g)


def _twins(g, u, w):
    """N(u) - {w} = N(w) - {u}, on vertex sets."""
    nu, nw = set(iter_bits(g.adj[u])), set(iter_bits(g.adj[w]))
    return nu - {w} == nw - {u}


def _check_lower_twins(g):
    """_lower_twins gives each vertex v the bit of the greatest u < v
    with N(u) - {v} = N(v) - {u}, or 0."""
    want = [max((1 << u for u in range(v) if _twins(g, u, v)), default=0) for v in range(g.n)]
    assert _lower_twins(g.adj) == want, g


def _check_twin_drops(g):
    """The parent's kept patterns are the least images of its min-degree
    patterns under the swaps inside its twin classes, found pairwise. A
    dropped pattern's least image is numerically smaller, gets the same
    _child_invariants verdict and keys, and gives an isomorphic child."""
    classes = {tuple(u for u in range(g.n) if u == v or _twins(g, u, v)) for v in range(g.n)}
    g_key = vertex_invariants(g)
    least = {}
    for p in _min_degree_patterns(g.degrees):
        # each class's share of p moved to its lowest labels
        least[p] = sum(1 << u for c in classes for u in c[: sum(p >> w & 1 for w in c)])
    assert _twin_orbit_patterns(g.adj, g.degrees) == sorted(set(least.values())), g
    for p, q in least.items():
        if q != p:
            assert q < p, (g, p, q)
            kp, kq = (_child_invariants(g.adj, g.degrees, g_key, r) for r in (p, q))
            assert (kp is None) == (kq is None) and (kp is None or sorted(kp) == sorted(kq)), (g, p, q)
            assert is_isomorphic(_child(g, p), _child(g, q)), (g, p, q)


def test_twin_rule_on_every_parent():
    for g in graphs_up_to(6):
        _check_lower_twins(g)
        _check_twin_drops(g)


@given(graphs(min_n=1, max_n=8))
def test_twin_rule_on_any_graph(g):
    _check_lower_twins(g)
    _check_twin_drops(g)


@given(graphs(min_n=1, max_n=16), graphs(min_n=1, max_n=16))
def test_pack_preserves_order(g, h):
    """The packed keys of every vertex pair drawn from graphs of order at
    most 16 compare, by < and ==, as the oracle's triples do."""
    keys = vertex_invariants(g) + vertex_invariants(h)
    triples = invariant_triples(g) + invariant_triples(h)
    for (a, ta), (b, tb) in itertools.product(zip(keys, triples), repeat=2):
        assert (a < b) == (ta < tb), (ta, tb)
        assert (a == b) == (ta == tb), (ta, tb)


def _hub(nbr_degrees):
    """A graph whose vertex 0 is joined to vertices 1..k, of these degrees
    (each at least 1), and to nothing else: vertex i also joins the first
    nbr_degrees[i - 1] - 1 vertices after k."""
    k = len(nbr_degrees)
    edges = [(0, i) for i in range(1, k + 1)]
    edges += [(i, k + 1 + j) for i, d in enumerate(nbr_degrees, 1) for j in range(d - 1)]
    return Graph(k + max(nbr_degrees, default=1), edges)


def test_pack_orders_full_histogram_digits():
    """Random graphs rarely give a vertex many neighbours of one degree, so
    this takes, for a hub of degree k <= 15, every sorted neighbour tuple
    over three consecutive degrees that _hub builds within order 16, where
    a histogram digit reaches 15: listed in ascending order, the hub's keys
    strictly ascend."""
    for k in range(16):
        for lo in range(1, 14):
            tuples = itertools.combinations_with_replacement(range(lo, lo + 3), k)
            keys = [vertex_invariants(_hub(t))[0] for t in tuples if k + max(t, default=1) <= 16]
            assert all(a < b for a, b in itertools.pairwise(keys)), (lo, k)


def test_enumeration_bound_within_packing_limit():
    # the key keeps the order only up to order 16: raising the enumeration
    # bound past it must change the packing first
    assert SCALE_MAX_N["enumeration"] <= 16


def test_invariants_computed_once_per_parent(monkeypatch):
    """Building orders 2..6 from a cold cache computes vertex_invariants
    once for each representative of orders 1..5, in generation order."""
    monkeypatch.setattr(enumeration, "_cache", {})
    seen = []

    def counting(g):
        seen.append(g)
        return vertex_invariants(g)

    monkeypatch.setattr(enumeration, "vertex_invariants", counting)
    enumerate_graphs(6)
    assert seen == [g for n in range(1, 6) for g in enumeration._cache[n]]


def test_one_graph_built_per_class(monkeypatch):
    """Building orders 2..6 from a cold cache wraps an adjacency tuple in
    a Graph once per class (2 + 4 + 11 + 34 + 156), not once per kept
    candidate: each candidate stays a tuple until the matcher has ruled
    out every representative in its bucket."""
    monkeypatch.setattr(enumeration, "_cache", {})
    built = []
    from_adj = Graph._from_adj

    def counting(n, adj):
        built.append(adj)
        return from_adj(n, adj)

    monkeypatch.setattr(Graph, "_from_adj", counting)
    enumerate_graphs(6)
    assert len(built) == 207
    assert built == [g.adj for n in range(2, 7) for g in enumeration._cache[n]]
