"""Shared hypothesis strategies and graph helpers."""

import itertools

import hypothesis.strategies as st

from hhresidue.enumeration import enumerate_graphs
from hhresidue.graphs import Graph


def graphs_up_to(n_max):
    """All representatives of orders 1..n_max, smaller orders first."""
    for n in range(1, n_max + 1):
        yield from enumerate_graphs(n)


def relabel(g, perm):
    """The copy of g in which vertex v is called perm[v]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def cycle(n: int) -> Graph:
    """C_n: the path 0..n-1 closed by the edge (n-1, 0); needs n >= 3."""
    if n < 3:
        raise ValueError("a simple cycle needs at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    """P_n: vertices 0..n-1, edges i - i+1."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(n, itertools.combinations(range(n), 2))


def complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n}: parts {0..m-1} and {m..m+n-1}."""
    if m < 1 or n < 1:
        raise ValueError("both parts need at least one vertex")
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def domino() -> Graph:
    """Two 4-cycles sharing an edge: the 2x3 grid 0-1-2 over 3-4-5."""
    return Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])


def petersen() -> Graph:
    """The Petersen graph: outer cycle 0..4, spokes i - i+5, and the inner
    pentagram on 5..9."""
    return _spoked_pentagons(2)


def pentagonal_prism() -> Graph:
    """Two 5-cycles, 0..4 and 5..9, joined by the spokes i - i+5. Like the
    Petersen graph it is cubic and triangle-free on ten vertices."""
    return _spoked_pentagons(1)


def _spoked_pentagons(step: int) -> Graph:
    """Outer cycle 0..4, spokes i - i+5, and each inner vertex 5+i joined
    to the one step places on."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + step) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def complement(g: Graph) -> Graph:
    return Graph(g.n, [(u, v) for u, v in itertools.combinations(range(g.n), 2) if not g.adj[u] >> v & 1])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g on vertices 0..g.n-1 and h shifted to g.n..g.n+h.n-1."""
    return Graph(g.n + h.n, g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()])


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8):
    """A random graph: uniform order in [min_n, max_n], arbitrary edge set."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1)) if pairs else 0
    return Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


@st.composite
def graphs_with_permutation(draw, min_n: int = 1, max_n: int = 8):
    g = draw(graphs(min_n=min_n, max_n=max_n))
    perm = draw(st.permutations(range(g.n)))
    return g, tuple(perm)


def degree_term_lists(max_len: int = 10, max_term: int = 9):
    """Arbitrary candidate degree sequences, graphical or not."""
    return st.lists(st.integers(0, max_term), min_size=0, max_size=max_len)
