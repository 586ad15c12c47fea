"""Named small graphs with fixed, documented labelings.

Parameterized families (paths, cliques, bicliques) plus the fixed
five- and six-vertex graphs used by the recognizers and the enumeration
checks. ``FORBIDDEN_SUBGRAPHS`` lists, in scan order, the nine minimal
graphs whose absence as induced subgraphs characterizes the strong
Havel-Hakimi class; the encodings below are certified by the
minimal-forbidden sweep in :mod:`hhresidue.harness`.
"""

from __future__ import annotations

from .graphs import Graph, complement, disjoint_union

# ---------------------------------------------------------------------------
# Parameterized families
# ---------------------------------------------------------------------------


def path(n: int) -> Graph:
    """P_n: vertices 0..n-1, edges i - i+1."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n}: parts {0..m-1} and {m..m+n-1}."""
    if m < 1 or n < 1:
        raise ValueError("both parts need at least one vertex")
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


# ---------------------------------------------------------------------------
# Fixed graphs
# ---------------------------------------------------------------------------


def k23_plus() -> Graph:
    """K_{2,3} with one extra edge inside the size-3 part; equals the
    complement of K_2 + P_3."""
    g = complete_bipartite(2, 3)
    return Graph(5, g.edges() + [(2, 3)])


def pan4() -> Graph:
    """4-pan: the 4-cycle 0-1-2-3 with pendant 4 attached to 0."""
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])


def kite() -> Graph:
    """Kite: triangle {0,1,2}, vertex 3 adjacent to 0 and 1, pendant 4 on 2."""
    return Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 4)])


def stool() -> Graph:
    """Stool: triangle {0,1,2}, vertex 3 adjacent to 0, pendants 4 and 5 on 3."""
    return Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (3, 5)])


def domino() -> Graph:
    """Two 4-cycles sharing an edge: the 2x3 grid 0-1-2 over 3-4-5."""
    return Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])


def co_domino() -> Graph:
    return complement(domino())


def two_p3() -> Graph:
    return disjoint_union(path(3), path(3))


def p3_plus_k3() -> Graph:
    return disjoint_union(path(3), complete(3))


# Minimal forbidden induced subgraphs of the strong Havel-Hakimi class,
# in scan order: the five-vertex members first, then the six-vertex ones.
FORBIDDEN_SUBGRAPHS: dict[str, Graph] = {
    "P5": path(5),
    "4-pan": pan4(),
    "K_{2,3}": complete_bipartite(2, 3),
    "K_{2,3}+": k23_plus(),
    "kite": kite(),
    "2P3": two_p3(),
    "P3+K3": p3_plus_k3(),
    "stool": stool(),
    "co-domino": co_domino(),
}

