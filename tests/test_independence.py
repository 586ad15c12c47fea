"""Exact independence numbers and the Maxine heuristic."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from hhresidue import independence
from hhresidue.degseq import residue
from hhresidue.graphs import Graph, iter_bits
from hhresidue.harness import on_c4_or_p5_center
from hhresidue.independence import (
    independence_number,
    independence_number_bitmask,
    independence_number_without,
    maxine_all_branches,
    maxine_run,
)

from oracles import induced_subgraph, to_networkx
from strategies import complement, complete, cycle, disjoint_union, graphs, graphs_up_to, path


def brute_alpha(g):
    """Subset-scan oracle: check independence of every vertex subset."""
    best = 0
    for mask in range(1 << g.n):
        if all(g.adj[v] & mask == 0 for v in iter_bits(mask)):
            best = max(best, mask.bit_count())
    return best


def replay_is_valid_maxine(g, deletions):
    """True iff each deleted vertex had maximum degree when deleted, while
    an edge remained, and no edge remains among the survivors."""
    mask = (1 << g.n) - 1
    for v in deletions:
        degs = {u: (g.adj[u] & mask).bit_count() for u in iter_bits(mask)}
        if max(degs.values()) == 0 or degs[v] != max(degs.values()):
            return False
        mask ^= 1 << v
    return all(g.adj[u] & mask == 0 for u in iter_bits(mask))


def brute_maxine_sizes(g, alive=None):
    """Unmemoised reference: follow every maximum-degree deletion sequence
    to its end and collect the sizes of the surviving sets."""
    alive = frozenset(range(g.n)) if alive is None else alive
    deg = {v: sum(g.adj[v] >> u & 1 for u in alive) for v in alive}
    top = max(deg.values(), default=0)
    if top == 0:
        return {len(alive)}
    return set().union(*(brute_maxine_sizes(g, alive - {v}) for v in alive if deg[v] == top))


# --- exact alpha ---------------------------------------------------------


def test_alpha_examples():
    for n in range(1, 8):
        assert independence_number(complete(n)) == 1
    assert independence_number(path(5)) == brute_alpha(path(5)) == 3
    assert independence_number(cycle(5)) == brute_alpha(cycle(5)) == 2
    assert independence_number(Graph(0)) == 0


@given(graphs(max_n=10))
def test_alpha_routes_agree(g):
    a = independence_number(g)
    assert a == independence_number_bitmask(g)
    assert a == brute_alpha(g)


def test_alpha_matches_networkx_clique_of_complement():
    """alpha(g) is the largest clique of the complement, by networkx, on
    every class of order <= 7, on seeded G(n, p) graphs up to n = 24, on
    seeded d-regular graphs of order 24 (d = 3..6) and their complements,
    on complete multipartite graphs and on disjoint unions of cycles; at
    n <= 20 also by the subset sweep."""
    nx = pytest.importorskip("networkx")

    def nx_alpha(g):
        return len(nx.max_weight_clique(nx.complement(to_networkx(g)), weight=None)[0])

    def from_nx(h):
        return Graph(h.number_of_nodes(), list(h.edges()))

    classes = list(graphs_up_to(7))
    assert len(classes) == 1252
    for g in classes:
        assert independence_number(g) == nx_alpha(g), g
    rng = random.Random(24)
    others = []
    for n in range(8, 25):
        for p in (0.1, 0.3, 0.5, 0.8):
            others.append(Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p]))
    for d in range(3, 7):
        for seed in range(3):
            g = from_nx(nx.random_regular_graph(d, 24, seed=100 * d + seed))
            others += [g, complement(g)]
    for sizes in ((1, 2, 3), (4, 4, 4), (2, 5, 7, 3), (8, 8, 8), (6,) * 4, (1,) * 20, (3, 9, 12)):
        others.append(from_nx(nx.complete_multipartite_graph(*sizes)))
    for lengths in ((3,) * 8, (4,) * 6, (5, 7, 9), (3, 4, 5, 6), (24,), (11, 13), (5,) * 4):
        g = Graph(0)
        for k in lengths:
            g = disjoint_union(g, cycle(k))
        others.append(g)
    for g in others:
        alpha = independence_number(g)
        assert alpha == nx_alpha(g), g
        if g.n <= 20:
            assert alpha == independence_number_bitmask(g), g


def shuffled(n, edges, rng):
    """The graph on n vertices with the given edges, labels shuffled."""
    perm = rng.sample(range(n), n)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def random_forest(n, rng):
    """Each vertex after the first joins a random earlier one, or starts a
    new tree with probability 0.1."""
    return shuffled(n, [(rng.randrange(v), v) for v in range(1, n) if rng.random() >= 0.1], rng)


def random_caterpillar(n, rng):
    """A spine path of 2..n//2 vertices, every other vertex a leaf on a
    random spine vertex."""
    spine = rng.randint(2, n // 2)
    edges = [(v, v + 1) for v in range(spine - 1)]
    edges += [(rng.randrange(spine), v) for v in range(spine, n)]
    return shuffled(n, edges, rng)


def test_alpha_closed_forms_at_orders_21_to_24():
    """Beyond the subset sweep's bound, where degree-<=1 vertices are taken
    without branching: paths, stars, cycles and matchings with isolated
    vertices, each with shuffled labels."""
    rng = random.Random(2124)
    for n in range(21, 25):
        assert independence_number(shuffled(n, path(n).edges(), rng)) == (n + 1) // 2
        assert independence_number(shuffled(n, [(0, v) for v in range(1, n)], rng)) == n - 1
        assert independence_number(shuffled(n, cycle(n).edges(), rng)) == n // 2
        for m in range(n // 2 + 1):
            matching = [(2 * i, 2 * i + 1) for i in range(m)]
            assert independence_number(shuffled(n, matching, rng)) == n - m


def test_alpha_of_forests_matches_networkx_matching():
    """A forest is bipartite, so alpha = n - maximum matching (Konig),
    computed by networkx; at n <= 20 also by the subset sweep."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(1965)
    for n in range(5, 25):
        for make in (random_forest, random_caterpillar):
            g = make(n, rng)
            alpha = n - len(nx.max_weight_matching(to_networkx(g), maxcardinality=True))
            assert independence_number(g) == alpha, g
            if n <= 20:
                assert independence_number_bitmask(g) == alpha, g


# --- vertices common to every maximum independent set ----------------------


def common_mis(g):
    """Bitmask of the vertices v with alpha(g - v) < alpha(g): those lying
    in every maximum independent set."""
    alpha = independence_number(g)
    return sum(1 << v for v in range(g.n) if independence_number_without(g, v) < alpha)


def test_common_mis_examples():
    assert common_mis(cycle(4)) == 0
    assert common_mis(path(5)) == 0b10101
    assert common_mis(complete(3)) == 0
    assert common_mis(Graph(3)) == 0b111


def test_common_mis_matches_networkx_on_classes_up_to_7():
    """The maximum independent sets of g are the maximum cliques of its
    complement; their intersection, by networkx's clique listing, on every
    class of order <= 7."""
    nx = pytest.importorskip("networkx")
    classes = list(graphs_up_to(7))
    assert len(classes) == 1252
    for g in classes:
        cliques = list(nx.find_cliques(nx.complement(to_networkx(g))))
        size = max(map(len, cliques))
        common = set(range(g.n)).intersection(*(c for c in cliques if len(c) == size))
        assert common_mis(g) == sum(1 << v for v in common), g


@given(graphs(max_n=12))
def test_alpha_without_matches_induced_subgraph(g):
    """alpha(g - v) by branching on the mask equals the exhaustive sweep on
    the subgraph induced by the other vertices, for every vertex v."""
    for v in range(g.n):
        others = [u for u in range(g.n) if u != v]
        assert independence_number_without(g, v) == independence_number_bitmask(induced_subgraph(g, others))


def brute_alpha_and_common(g):
    """Over itertools.combinations, largest size first: the first size with
    an independent set is alpha, and the AND of those sets is the mask."""
    for size in range(g.n, -1, -1):
        sets = [
            sum(1 << v for v in c)
            for c in itertools.combinations(range(g.n), size)
            if not any(g.adj[u] >> v & 1 for u, v in itertools.combinations(c, 2))
        ]
        if sets:
            common = (1 << g.n) - 1
            for m in sets:
                common &= m
            return size, common


@given(graphs(max_n=14))
def test_exhaustive_routes_match_combinations(g):
    alpha, common = brute_alpha_and_common(g)
    assert independence_number_bitmask(g) == alpha
    assert common_mis(g) == common


# --- Maxine, single runs ---------------------------------------------------


def test_maxine_k2():
    assert len(maxine_run(complete(2))) == 1


def test_maxine_c4_all_strategies():
    for strategy in ("first", "last"):
        assert len(maxine_run(cycle(4), strategy)) == 2
    for seed in range(5):
        assert len(maxine_run(cycle(4), "random", seed=seed)) == 2


def test_maxine_p5_first_strategy():
    assert maxine_run(path(5), "first") == (1, 3)


def test_maxine_random_is_seeded():
    g = cycle(6)
    assert maxine_run(g, "random", seed=7) == maxine_run(g, "random", seed=7)


def test_maxine_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        maxine_run(path(3), "middle")


@given(graphs(), st.sampled_from(["first", "last", "random"]), st.integers(0, 99))
def test_maxine_outcomes_are_valid(g, strategy, seed):
    deletions = maxine_run(g, strategy, seed=seed)
    assert len(set(deletions)) == len(deletions)
    assert replay_is_valid_maxine(g, deletions)


# --- Maxine, all branches ---------------------------------------------------


def test_branches_p5():
    assert maxine_all_branches(path(5)) == (2, 3)


def test_branches_complete():
    for n in range(1, 7):
        assert maxine_all_branches(complete(n)) == (1,)


def test_branches_c5():
    assert maxine_all_branches(cycle(5)) == (2,)


def test_branches_match_reference_on_every_class():
    for g in graphs_up_to(6):
        assert maxine_all_branches(g) == tuple(sorted(brute_maxine_sizes(g)))


@pytest.mark.parametrize(
    "g, states",
    [
        # every vertex set of at least two vertices is visited once, from K8
        # down to K2, where maximum degree 1 ends the run: 2^8 - 8 - 1
        # states (255, every nonempty subset, without the matching rule;
        # 28,961 calls without the memo)
        (complete(8), 247),
        # maximum degree 1 at the start: one state (81 without the rule)
        (Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)]), 1),
    ],
    ids=["complete-8", "perfect-matching-8"],
)
def test_branch_states_are_memoised(monkeypatch, g, states):
    """The residual vertex sets explored, counted as calls to
    _max_degree_candidates. The unmemoised reference walks all 8! deletion
    orders of K8, about 0.2 s on a 2-vCPU host; K9 would take ten times
    that."""
    calls = []
    real = independence._max_degree_candidates
    counted = lambda adj, mask: calls.append(mask) or real(adj, mask)
    monkeypatch.setattr(independence, "_max_degree_candidates", counted)
    assert maxine_all_branches(g) == tuple(sorted(brute_maxine_sizes(g)))
    assert len(calls) == states


@given(graphs(max_n=7))
def test_branches_match_reference(g):
    assert maxine_all_branches(g) == tuple(sorted(brute_maxine_sizes(g)))


def test_branches_on_every_class_of_order_8_are_pinned():
    """The sizes of every class of orders 1..8, in generation order, hash
    to a digest recorded when the branching still explored one candidate
    per twin class, a second route to the same sizes. The reference above
    stops at order 7; this pins order 8 with about 0.2 s of branching."""
    digest = hashlib.sha256()
    for g in graphs_up_to(8):
        digest.update(f"{' '.join(map(str, maxine_all_branches(g)))}\n".encode())
    assert digest.hexdigest() == "8de4882cac51889d30d62d9c386d6973c45457b68d1b5181356d6831b025a372"


def test_maxine_optimal_on_c4_p5_free_graphs():
    """On every graph up to order 7 with no induced C4 and no induced P5,
    every Maxine branch reaches the independence number."""
    checked = 0
    for g in graphs_up_to(7):
        # g has an induced C4 or P5 iff some vertex lies on an induced C4
        # or is the center of an induced P5
        if any(on_c4_or_p5_center(g, v) for v in range(g.n)):
            continue
        checked += 1
        assert maxine_all_branches(g) == (independence_number(g),)
    assert checked == 439


@given(graphs(max_n=6))
def test_branch_sizes_between_residue_and_alpha(g):
    sizes = maxine_all_branches(g)
    r = residue(g.degree_sequence())
    alpha = independence_number(g)
    assert r <= sizes[0] <= sizes[-1] <= alpha


@given(graphs(max_n=6), st.sampled_from(["first", "last", "random"]))
def test_single_runs_land_in_achievable_sizes(g, strategy):
    assert g.n - len(maxine_run(g, strategy, seed=3)) in maxine_all_branches(g)
