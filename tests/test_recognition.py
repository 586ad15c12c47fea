"""Vertex-level property, class recognizers, configuration, threshold."""

import itertools
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from hhresidue import recognition
from hhresidue.degseq import hh_reduce
from hhresidue.enumeration import enumerate_graphs
from hhresidue.graphs import Graph, iter_bits
from hhresidue.recognition import (
    FORBIDDEN_SUBGRAPHS,
    definitional_violation,
    is_matrogenic_config_free,
    is_strong_havel_hakimi_definitional,
    is_threshold,
    strong_hh_witness,
)

from oracles import (
    copy_tables_by_pairs,
    has_hh_property,
    induced_subgraph,
    is_isomorphic,
    to_networkx,
)
from strategies import complete, complete_bipartite, cycle, disjoint_union, graphs, graphs_up_to, path, relabel


def pendant_on_c5():
    return Graph(6, cycle(5).edges() + [(0, 5)])


def config_holds(g, five):
    """Check a tuple (v, w, u, x, y) directly against the definition of the
    matrogenic configuration."""
    v, w, u, x, y = five
    need_edges = [(v, w), (u, x), (u, y)]
    need_non = [(u, v), (w, x), (w, y)]
    distinct = len({v, w, u, x, y}) == 5
    return (
        distinct
        and all(g.adj[a] >> b & 1 for a, b in need_edges)
        and not any(g.adj[a] >> b & 1 for a, b in need_non)
    )


def config_free_by_definition(g):
    """Brute force: no ordered 5-tuple of vertices is the configuration."""
    return not any(config_holds(g, five) for five in itertools.permutations(range(g.n), 5))


# --- Havel-Hakimi property of a vertex --------------------------------------


def test_pendant_on_c5_has_no_hh_vertex():
    g = pendant_on_c5()
    assert g.degree_sequence() == (3, 2, 2, 2, 2, 1)
    assert not any(has_hh_property(g, v) for v in range(6))


def test_star_center_has_property():
    star = complete_bipartite(1, 3)
    assert has_hh_property(star, 0)
    assert not has_hh_property(star, 1)  # leaves lack maximum degree


def test_p5_second_vertex_lacks_property():
    p5 = path(5)
    assert not has_hh_property(p5, 1)
    assert has_hh_property(p5, 2)  # the center's non-neighbors are the leaves


def test_hh_property_vertex_range():
    with pytest.raises(ValueError):
        has_hh_property(path(3), 3)


@given(graphs(min_n=1, max_n=7))
def test_hh_deletion_mirrors_step(g):
    """Deleting a vertex with the property changes the degree sequence
    exactly like one reduction step."""
    d = g.degree_sequence()
    # a graph without edges takes no step: deleting a vertex drops one zero
    step = hh_reduce(d)[1] if any(d) else d[1:]
    for v in range(g.n):
        if has_hh_property(g, v):
            rest = induced_subgraph(g, [u for u in range(g.n) if u != v])
            assert sorted(rest.degree_sequence()) == sorted(step)


# --- the forbidden-subgraph scan by hand ------------------------------------


def test_witness_is_an_induced_copy():
    """K_{2,3}+ and P3+K3 each contain an earlier catalog graph as a
    subgraph (K_{2,3}, 2P3) but not as an induced one."""
    k23, k23_plus = FORBIDDEN_SUBGRAPHS["K_{2,3}"], FORBIDDEN_SUBGRAPHS["K_{2,3}+"]
    assert set(k23.edges()) < set(k23_plus.edges())
    assert strong_hh_witness(k23_plus) == ("K_{2,3}+", (0, 1, 2, 3, 4))
    two_p3, p3_plus_k3 = FORBIDDEN_SUBGRAPHS["2P3"], FORBIDDEN_SUBGRAPHS["P3+K3"]
    assert set(two_p3.edges()) < set(p3_plus_k3.edges())
    assert strong_hh_witness(p3_plus_k3) == ("P3+K3", (0, 1, 2, 3, 4, 5))


def test_witness_prefers_smaller_subsets():
    # 2P3 on 0..5 comes first lexicographically, but a P5 is smaller
    g = disjoint_union(FORBIDDEN_SUBGRAPHS["2P3"], path(5))
    assert strong_hh_witness(g) == ("P5", (6, 7, 8, 9, 10))


def test_witness_is_the_lexicographically_first_copy():
    assert strong_hh_witness(disjoint_union(path(5), path(5))) == ("P5", (0, 1, 2, 3, 4))


def test_copy_tables_match_pair_by_pair_build():
    assert recognition._copy_tables() == copy_tables_by_pairs(FORBIDDEN_SUBGRAPHS)


def test_graphs_below_order_5_have_no_witness():
    assert strong_hh_witness(Graph(0)) is None
    for g in graphs_up_to(4):
        assert strong_hh_witness(g) is None


# --- the scan against the subset-by-subset route -------------------------------

THRESHOLD_TARGETS = (disjoint_union(complete(2), complete(2)), cycle(4), path(4))


def reference_scan(g, targets):
    """Reference route: subsets by increasing size, lexicographically within
    a size, target order within a subset; sorted degrees filter before an
    isomorphism test of the induced subgraph."""
    for size in sorted({h.n for h in targets}):
        members = [(i, h, h.degree_sequence()) for i, h in enumerate(targets) if h.n == size]
        for sub in itertools.combinations(range(g.n), size):
            sg = induced_subgraph(g, sub)
            for i, h, hdegs in members:
                if sg.degree_sequence() == hdegs and is_isomorphic(sg, h):
                    return i, sub
    return None


def reference_witness(g):
    hit = reference_scan(g, tuple(FORBIDDEN_SUBGRAPHS.values()))
    return None if hit is None else (list(FORBIDDEN_SUBGRAPHS)[hit[0]], hit[1])


def assert_scans_match_reference(g):
    assert strong_hh_witness(g) == reference_witness(g)
    assert is_threshold(g) == (reference_scan(g, THRESHOLD_TARGETS) is None)


@given(graphs(max_n=10))
def test_scans_match_reference_route(g):
    assert_scans_match_reference(g)


def alternating_threshold_graph(n, rng):
    """Vertices added in turn as isolated and dominating, shuffled labels."""
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(Graph(n, [(u, v) for v in range(1, n, 2) for u in range(v)]), perm)


def test_scans_match_reference_on_relabelled_catalog_and_threshold_graphs():
    rng = random.Random(20151)
    for name, fg in FORBIDDEN_SUBGRAPHS.items():
        for _ in range(5):
            perm = list(range(fg.n))
            rng.shuffle(perm)
            g = relabel(fg, perm)
            assert strong_hh_witness(g) == (name, tuple(range(fg.n)))
            assert_scans_match_reference(g)
    for n in range(10, 21, 2):
        g = alternating_threshold_graph(n, rng)
        assert strong_hh_witness(g) is None
        assert is_threshold(g)
        assert_scans_match_reference(g)


def gnp(n, p, rng):
    return Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])


# --- the peel before the scan ----------------------------------------------


def test_forbidden_graphs_have_no_isolated_or_dominating_vertex():
    """The lemma the scan's peel rests on: no forbidden graph has a vertex
    of degree 0 or n - 1, so the peel leaves each one whole."""
    for name, fg in FORBIDDEN_SUBGRAPHS.items():
        assert all(0 < d < fg.n - 1 for d in fg.degrees), name
        assert recognition._peel(fg.adj) == (1 << fg.n) - 1, name


def insert_vertex(g, at, dominating):
    """g with a new vertex at label at, joined to every other vertex when
    dominating and to none otherwise; the labels from at up move up one."""
    up = [v + (v >= at) for v in range(g.n)]
    edges = [(up[u], up[v]) for u, v in g.edges()]
    if dominating:
        edges += [(at, w) for w in up]
    return Graph(g.n + 1, edges)


def with_peelable_vertices(g):
    """g with one isolated or dominating vertex inserted at the lowest, a
    middle and the highest label, and with one of each in either order,
    so that the one inserted first is peelable only once the other is
    peeled."""
    for at in (0, g.n // 2, g.n):
        for dominating in (False, True):
            yield insert_vertex(g, at, dominating)
    for first in (False, True):
        h = insert_vertex(g, 0, first)
        yield insert_vertex(h, h.n // 2, not first)


def test_witness_with_isolated_and_dominating_vertices_added():
    """Each forbidden graph and seeded G(n, p) graphs of order <= 10, with
    isolated and dominating vertices added: the scan, which peels them,
    names the first copy as the reference route, which does not."""
    rng = random.Random(1977)
    bases = list(FORBIDDEN_SUBGRAPHS.values())
    bases += [gnp(n, p, rng) for n in range(5, 11) for p in (0.3, 0.6)]
    for g in bases:
        for h in with_peelable_vertices(g):
            assert strong_hh_witness(h) == reference_witness(h), h


def test_peelable_vertex_keeps_definitional_answer():
    """The class-level fact behind the peel, through the definitional
    oracle, which shares no code with it: an isolated or a dominating
    vertex added to any class of order <= 6 keeps the graph in the class
    or out of it, and the scan agrees."""
    for g in graphs_up_to(6):
        inside = definitional_violation(g) is None
        for h in with_peelable_vertices(g):
            assert (definitional_violation(h) is None) == inside, h
            assert (strong_hh_witness(h) is None) == inside, h


def test_full_scan_on_in_class_graph_that_peels_nothing():
    """10K2 under shuffled labels: every vertex has degree 1 of 19, so the
    peel leaves all 20 and the scan runs on the whole graph."""
    perm = random.Random(2015).sample(range(20), 20)
    g = relabel(Graph(20, [(2 * i, 2 * i + 1) for i in range(10)]), perm)
    assert recognition._peel(g.adj) == (1 << 20) - 1
    assert strong_hh_witness(g) is None


def test_scan_calls_per_order(monkeypatch):
    """The forbidden scan's recursion runs as often as pinned over all
    classes of orders 1..7. Below order 5 nothing is scanned. Without the
    bound that stops a prefix when too few vertices are left to finish a
    copy, the witnesses stay the same but the counts were 0, 0, 0, 0, 240,
    3849, 25281."""
    calls = []
    extend = recognition._extend_copy

    def counting(*args):
        calls.append(args)
        return extend(*args)

    monkeypatch.setattr(recognition, "_extend_copy", counting)
    per_order = []
    for n in range(1, 8):
        before = len(calls)
        for g in enumerate_graphs(n):
            strong_hh_witness(g)
        per_order.append(len(calls) - before)
    assert per_order == [0, 0, 0, 0, 60, 1024, 9780]


def grown_in_class_graph(n, rng):
    """A strong Havel-Hakimi graph of order n grown one vertex at a time: a
    random neighborhood is kept when the graph stays in the class, else the
    vertex is isolated or dominating, which keeps it in the class."""
    g = Graph(0)
    for k in range(n):
        nbrs = [u for u in range(k) if rng.random() < 0.5]
        h = Graph(k + 1, g.edges() + [(u, k) for u in nbrs])
        if strong_hh_witness(h) is not None:
            nbrs = range(k) if rng.random() < 0.5 else ()
            h = Graph(k + 1, g.edges() + [(u, k) for u in nbrs])
        g = h
    return g


def test_scans_match_reference_above_order_10():
    """The first witness, by the scan and by the reference route, on seeded
    G(n, p) graphs of orders 11..20 (most hit early, so the reference
    route stays cheap), on relabelled in-class graphs of orders 11 and 12,
    and on those graphs with one arbitrary vertex added, whose witness, if
    any, must contain that vertex."""
    rng = random.Random(2015)
    for n in range(11, 21):
        for p in (0.1, 0.2, 0.3, 0.5, 0.8) * 2:
            g = gnp(n, p, rng)
            assert strong_hh_witness(g) == reference_witness(g), (n, p)
    hits = 0
    for n in (11, 12):
        for _ in range(5):
            g = grown_in_class_graph(n, rng)
            h = Graph(n + 1, g.edges() + [(u, n) for u in range(n) if rng.random() < 0.5])
            g = relabel(g, rng.sample(range(n), n))
            perm = rng.sample(range(n + 1), n + 1)
            h = relabel(h, perm)
            assert strong_hh_witness(g) is None
            assert reference_witness(g) is None
            assert definitional_violation(g) is None
            hit = strong_hh_witness(h)
            assert hit == reference_witness(h)
            if hit:
                hits += 1
                assert perm[n] in hit[1]
    assert hits


# --- class recognizers -------------------------------------------------------


def test_p5_witnesses_itself():
    assert strong_hh_witness(path(5)) == ("P5", (0, 1, 2, 3, 4))


def test_complete_graphs_are_in_class():
    for n in range(1, 8):
        assert strong_hh_witness(complete(n)) is None


def test_c5_is_in_class_both_ways():
    assert strong_hh_witness(cycle(5)) is None
    assert is_strong_havel_hakimi_definitional(cycle(5))


def test_p5_fails_definitional():
    assert not is_strong_havel_hakimi_definitional(path(5))


def test_small_graphs_all_in_class():
    for g in graphs_up_to(3):
        assert is_strong_havel_hakimi_definitional(g)
        assert strong_hh_witness(g) is None


def test_no_graph_on_at_most_four_vertices_fails():
    """The lemma behind the sweep's skip of masks with at most four
    vertices, checked vertex by vertex: in each of the 76 labelled graphs
    on at most four vertices, every maximum-degree vertex of every induced
    subgraph has the property."""
    checked = 0
    for n in range(5):
        pairs = list(itertools.combinations(range(n), 2))
        for edges in itertools.product((False, True), repeat=len(pairs)):
            g = Graph(n, [p for p, e in zip(pairs, edges) if e])
            checked += 1
            for mask in range(1, 1 << n):
                sub = induced_subgraph(g, iter_bits(mask))
                deg = sub.degrees
                dmax = max(deg)
                for v in range(sub.n):
                    assert deg[v] < dmax or has_hh_property(sub, v), (g, mask, v)
    assert checked == 76


def test_top_mask_table_matches_a_brute_force_filter():
    """For n = 1..12, the sweep's table lists, in increasing order, every
    mask below 2^n that holds vertex n-1 and at least five vertices, each
    with its vertices in increasing order."""
    for n in range(1, 13):
        want = [
            (mask, tuple(v for v in range(n) if mask >> v & 1))
            for mask in range(1 << n)
            if mask >> (n - 1) & 1 and bin(mask).count("1") >= 5
        ]
        assert recognition._top_masks(n) == tuple(want), n


def minimal_forbidden_by_deletion(g):
    """Oracle: outside the class by the definitional recognizer, with every
    one-vertex deletion inside."""
    if is_strong_havel_hakimi_definitional(g):
        return False
    return all(
        is_strong_havel_hakimi_definitional(induced_subgraph(g, [u for u in range(g.n) if u != v]))
        for v in range(g.n)
    )


@given(graphs(min_n=1, max_n=7))
def test_first_violation_is_full_set_iff_minimal_forbidden(g):
    first = definitional_violation(g)
    assert (first == (1 << g.n) - 1) == minimal_forbidden_by_deletion(g)
    if first is not None:
        # a maximum-degree vertex of the induced subgraph lacks the property
        sub = induced_subgraph(g, iter_bits(first))
        deg = sub.degrees
        dmax = max(deg)
        assert any(deg[v] == dmax and not has_hh_property(sub, v) for v in range(sub.n))


def first_violation_ref(g):
    """Reference route: the first mask, in numeric order, whose induced
    subgraph has a maximum-degree vertex lacking the property."""
    for mask in range(1, 1 << g.n):
        sub = induced_subgraph(g, iter_bits(mask))
        deg = sub.degrees
        dmax = max(deg)
        if any(deg[v] == dmax and not has_hh_property(sub, v) for v in range(sub.n)):
            return mask
    return None


@st.composite
def graphs_with_in_class_prefix(draw, min_n, max_n):
    """A graph whose vertices 0..n-2 induce a strong Havel-Hakimi graph,
    so its first violation, if any, contains vertex n-1. The prefix grows
    one vertex at a time: a drawn neighborhood is kept when the graph stays
    in the class, else the vertex is isolated or dominating, which keeps
    it in the class. The last vertex's neighborhood is arbitrary."""
    n = draw(st.integers(min_n, max_n))
    g = Graph(0)
    while g.n < n:
        k = g.n
        nbrs = draw(st.integers(0, (1 << k) - 1))
        h = Graph(k + 1, g.edges() + [(u, k) for u in iter_bits(nbrs)])
        if k < n - 1 and strong_hh_witness(h) is not None:
            nbrs = (1 << k) - 1 if draw(st.booleans()) else 0
            h = Graph(k + 1, g.edges() + [(u, k) for u in iter_bits(nbrs)])
        g = h
    return g


@pytest.mark.parametrize("min_n, max_n", [(1, 9), (10, 12)])
@settings(max_examples=30)
@given(data=st.data())
def test_definitional_violation_matches_reference(min_n, max_n, data):
    """Half the examples have order 10..12, so the sweep's masks pass 2^9,
    and about half of all have an in-class prefix, so the sweep reaches
    the masks that contain the top vertex."""
    g = data.draw(st.one_of(graphs(min_n, max_n), graphs_with_in_class_prefix(min_n, max_n)))
    recognition._first_violation.cache_clear()
    cold = definitional_violation(g)
    recognition._first_violation.cache_clear()
    definitional_violation(induced_subgraph(g, range(g.n - 1)))
    assert cold == definitional_violation(g) == first_violation_ref(g)


def test_catalog_first_violation_is_full_set():
    for name, fg in FORBIDDEN_SUBGRAPHS.items():
        assert minimal_forbidden_by_deletion(fg), name
        assert definitional_violation(fg) == (1 << fg.n) - 1, name


def test_recognizers_agree_up_to_5():
    for g in graphs_up_to(5):
        assert is_strong_havel_hakimi_definitional(g) == (strong_hh_witness(g) is None)


@given(graphs(min_n=1, max_n=6))
def test_class_is_hereditary(g):
    if strong_hh_witness(g) is None:
        for v in range(g.n):
            rest = induced_subgraph(g, [u for u in range(g.n) if u != v])
            assert strong_hh_witness(rest) is None


def test_forbidden_members_witness_themselves():
    for name, fg in FORBIDDEN_SUBGRAPHS.items():
        assert strong_hh_witness(fg) == (name, tuple(range(fg.n)))


# --- matrogenic configuration ------------------------------------------------


def test_complete_graphs_config_free():
    for n in range(1, 8):
        assert is_matrogenic_config_free(complete(n))


def test_p5_contains_config():
    p5 = path(5)
    assert not is_matrogenic_config_free(p5)
    # (v, w, u, x, y) = (1, 0, 3, 2, 4) is one occurrence
    assert config_holds(p5, (1, 0, 3, 2, 4))


def test_c5_config_free():
    assert is_matrogenic_config_free(cycle(5))


def test_config_free_matches_definition_up_to_6():
    for g in graphs_up_to(6):
        assert is_matrogenic_config_free(g) == config_free_by_definition(g), g


@given(graphs(max_n=8))
def test_config_free_matches_definition(g):
    assert is_matrogenic_config_free(g) == config_free_by_definition(g)


# --- threshold ---------------------------------------------------------------


def test_threshold_examples():
    assert is_threshold(complete_bipartite(1, 3))
    assert not is_threshold(path(4))
    assert not is_threshold(cycle(4))
    assert not is_threshold(disjoint_union(complete(2), complete(2)))


def networkx_is_threshold(g):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.threshold import is_threshold_graph

    return is_threshold_graph(to_networkx(g))


def test_threshold_matches_networkx_up_to_7():
    """A route that shares no code with the peeling: networkx's threshold
    test, on every class of order <= 7."""
    for g in graphs_up_to(7):
        assert is_threshold(g) == networkx_is_threshold(g), g


def test_threshold_matches_networkx_at_analyze_orders():
    """Orders 10..20, where analyze runs the test: relabelled alternating
    threshold graphs, each also with one vertex pair flipped, and seeded
    G(n, p) graphs."""
    rng = random.Random(1977)
    for n in range(10, 21):
        g = alternating_threshold_graph(n, rng)
        u, v = rng.sample(range(n), 2)
        flipped = Graph(n, sorted(set(g.edges()) ^ {(min(u, v), max(u, v))}))
        samples = [g, flipped]
        for _ in range(3):
            p = rng.random()
            samples.append(Graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p]))
        for h in samples:
            assert is_threshold(h) == networkx_is_threshold(h), h.edges()
        assert is_threshold(g)


def test_class_chain_up_to_5():
    for g in graphs_up_to(5):
        if is_threshold(g):
            assert is_matrogenic_config_free(g)
        if is_matrogenic_config_free(g):
            assert strong_hh_witness(g) is None
