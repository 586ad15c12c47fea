"""Recognizers built on the vertex-level Havel-Hakimi property.

A vertex has the Havel-Hakimi property when it has maximum degree and none
of its neighbors has smaller degree than any of its non-neighbors; deleting
such a vertex changes the degree sequence exactly like one reduction step.
A graph is *strong Havel-Hakimi* when every maximum-degree vertex of every
induced subgraph has the property. Two independent recognizers are
provided: the definitional subset sweep, which also names the first
violating subset, and a scan for the nine minimal forbidden induced
subgraphs. Per subset, the sweep sorts the vertices into one bitmask per
induced degree; a maximum-degree vertex fails when one of its
non-neighbors lies in a level above the lowest level that meets its
neighborhood. The subsets come from one table per order, which lists
each mask with its vertices and leaves out subsets of at most four
vertices, since no graph on at most four vertices fails (the proof is in
definitional_violation), and answers are kept per adjacency tuple. The
tests check the sweep against the property tested vertex by vertex, a
route kept in tests/oracles.py. The module also gives two
plain boolean tests: the absence of the five-vertex configuration that
characterizes matrogenic graphs, and threshold recognition by peeling
isolated and dominating vertices.

The nine forbidden graphs are written below as literal edge lists in
FORBIDDEN_SUBGRAPHS; the minimal-forbidden sweep of hhresidue.harness
certifies them, since it finds exactly these nine graphs among all
graphs of order at most 6. The scan reads one table, built once per
process on first use from those edge lists: per catalog order, one list
of code levels, one level per position. Every labelled copy of a catalog
graph is coded with one bit per position pair, and level m holds the
codes of the copies' first m + 1 positions: a set for each prefix, and,
as the last level, the dict from each full code to the graph's catalog
name. The scan, _extend_copy, grows vertex subsets one vertex at a time
in lexicographic order and drops a prefix as soon as its code is missing
from its level, so a subset is never built as a graph and no
isomorphism test runs. Its witness is the plain tuple (catalog name,
sorted host vertices).

The scan covers only the core that _peel leaves: the vertices left after
deleting, until none remains, a vertex isolated or dominating among
those still left. The witness stays the same, by two facts. No
forbidden graph has an isolated or a dominating vertex. A vertex
isolated or dominating among the vertices left is so in every subset of
them that contains it, so no copy contains a peeled vertex. The scan
reads the core in g's own labels, so its subsets come in g's
lexicographic order and its first copy is g's first copy. A threshold
graph is one whose core is empty.
"""

from __future__ import annotations

import functools
import itertools

from .graphs import Graph, check_order, iter_bits

# Minimal forbidden induced subgraphs of the strong Havel-Hakimi class,
# in scan order: the five-vertex members first, then the six-vertex ones.
FORBIDDEN_SUBGRAPHS: dict[str, Graph] = {
    # path 0-1-2-3-4
    "P5": Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    # 4-cycle 0-1-2-3, pendant 4 on 0
    "4-pan": Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]),
    # parts {0, 1} and {2, 3, 4}
    "K_{2,3}": Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
    # K_{2,3} plus the edge 2-3; the complement of K2 + P3
    "K_{2,3}+": Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)]),
    # triangle {0, 1, 2}, vertex 3 on 0 and 1, pendant 4 on 2
    "kite": Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 4)]),
    # paths 0-1-2 and 3-4-5
    "2P3": Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
    # path 0-1-2 and triangle {3, 4, 5}
    "P3+K3": Graph(6, [(0, 1), (1, 2), (3, 4), (3, 5), (4, 5)]),
    # triangle {0, 1, 2}, vertex 3 on 0, pendants 4 and 5 on 3
    "stool": Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (3, 5)]),
    # complement of the domino, the 2x3 grid 0-1-2 over 3-4-5
    "co-domino": Graph(6, [(0, 2), (0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4), (3, 5)]),
}


def definitional_violation(g: Graph) -> int | None:
    """Definitional oracle: the first nonempty vertex subset, as a bitmask
    in increasing numeric order, on which some maximum-degree vertex of the
    induced subgraph lacks the Havel-Hakimi property; None when there is
    none, that is, when g is strong Havel-Hakimi. Every proper subset of a
    set has a smaller mask, so g is minimal forbidden exactly when the
    answer is its full vertex set. Cost 2^n * poly(n), hence the scale
    bound.

    The masks below 2^(n-1) are the subsets of g's prefix, its induced
    subgraph on vertices 0..n-2 with the same labels. So the answer is the
    prefix's answer when that is not None, and otherwise the first failing
    mask that contains vertex n-1. Answers are kept per adjacency tuple
    for the life of the process, so a graph asked after its prefix sweeps
    at most the masks through its top vertex.

    The masks through the top vertex are read, with their vertex lists,
    from a table built once per order and kept for the process
    (_top_masks), so no sweep decodes a mask. The table leaves out masks
    of at most four vertices, since no graph on at most four vertices
    fails. Suppose a maximum-degree vertex v had a neighbour u and a
    non-neighbour w != v with deg w > deg u >= 1. Then w has at least two
    neighbours outside {v, w}, so there are exactly four vertices and
    w ~ u. Since u ~ v and u ~ w, deg u >= 2 = deg w, a contradiction."""
    check_order("definitional", g.n)
    return _first_violation(g.adj)


@functools.cache
def _first_violation(adj: tuple[int, ...]) -> int | None:
    """definitional_violation of the graph on len(adj) vertices with these
    neighbourhoods, without the order check, by the prefix rule."""
    n = len(adj)
    if n == 0:
        return None
    low = (1 << (n - 1)) - 1
    first = _first_violation(tuple(a & low for a in adj[:-1]))
    if first is not None:
        return first
    for mask, verts in _top_masks(n):
        # levels[d]: the vertices of induced degree d
        levels = [0] * len(verts)
        dmax = 0
        for v in verts:
            d = (adj[v] & mask).bit_count()
            levels[d] |= 1 << v
            if d > dmax:
                dmax = d
        top = levels[dmax]
        if top == mask:
            continue  # regular, so no non-neighbor has larger degree
        # dmax >= 1 here, so every v in top has a neighbor in mask
        for v in iter_bits(top):
            nbm = adj[v] & mask
            non = mask ^ nbm ^ (1 << v)
            if not non:
                continue
            above = mask
            for level in levels:
                above ^= level
                if level & nbm:
                    # level holds v's least-degree neighbors
                    if above & non:
                        return mask
                    break
    return None


@functools.cache
def _top_masks(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(mask, iter_bits(mask)) for every mask of at least five of the
    vertices 0..n-1 that contains vertex n-1, in increasing order."""
    return tuple((mask, iter_bits(mask)) for mask in range(1 << (n - 1), 1 << n) if mask.bit_count() >= 5)


def is_strong_havel_hakimi_definitional(g: Graph) -> bool:
    """Definitional recognizer: no vertex subset violates the property."""
    return definitional_violation(g) is None


@functools.cache
def _copy_tables() -> tuple:
    """One list levels of k code levels per order k of the catalog, in
    ascending order. A copy puts vertex v of a k-vertex forbidden graph at
    position pos[v], for a permutation pos, and its code has the bit
    j*(j-1)//2 + i of each position pair i < j that holds an edge, so the
    code of the first m + 1 positions is the code's low m*(m+1)//2 bits.
    levels[m] holds those codes of every labelled copy: a set for each
    prefix, and, as the last entry, the dict from each full code to the
    catalog name of the first graph it copies. Built on first use, from
    the edge list: k! codes per graph."""
    k_max = max(h.n for h in FORBIDDEN_SUBGRAPHS.values())
    pair_bit = [[0] * k_max for _ in range(k_max)]
    for j in range(k_max):
        for i in range(j):
            pair_bit[i][j] = pair_bit[j][i] = 1 << (j * (j - 1) // 2 + i)
    by_order: dict[int, dict[int, str]] = {}
    for name, h in FORBIDDEN_SUBGRAPHS.items():
        full = by_order.setdefault(h.n, {})
        edges = h.edges()
        for pos in itertools.permutations(range(h.n)):
            # distinct edges set distinct bits, so the sum is their OR
            full.setdefault(sum([pair_bit[pos[u]][pos[v]] for u, v in edges]), name)
    return tuple(
        [*({code & ((1 << m * (m + 1) // 2) - 1) for code in full} for m in range(k - 1)), full]
        for k, full in sorted(by_order.items())
    )


def _extend_copy(verts, above, rows, levels, m: int, code: int, start: int):
    """The first way, in lexicographic order of positions in verts, to
    finish a copy coded in levels (see _copy_tables) whose first m
    vertices are chosen, with code code: k - m more vertices at positions
    from start on, where k is len(levels). Returns (name, those k - m
    vertices in the order of verts), or None. rows and above are indexed
    by vertex, and one rows list serves the whole scan.

    Subsets grow one vertex at a time, and the code grows by the new
    vertex's row rows[v], one bit per position before it. A code at
    position m is looked up in levels[m]: a prefix whose code is not there
    begins no labelled copy, so it is dropped with every subset extending
    it, and at the last position the lookup names the copy. A prefix also
    stops where too few positions are left to reach k vertices. Choosing
    v at position m sets bit m in the rows of above[v], v's neighbours
    after v in verts, and clears it again once the subsets extending that
    choice are done; later positions hold only vertices after v, so no
    other row is read. The witness is built on the way out."""
    shift = m * (m - 1) // 2
    level, bit = levels[m], 1 << m
    for i in range(start, len(verts) - len(levels) + m + 1):
        v = verts[i]
        c = code | rows[v] << shift
        if c in level:
            if m + 1 == len(levels):
                return level[c], (v,)
            nbrs = above[v]
            for w in nbrs:
                rows[w] |= bit
            hit = _extend_copy(verts, above, rows, levels, m + 1, c, i + 1)
            for w in nbrs:
                rows[w] ^= bit
            if hit:
                return hit[0], (v, *hit[1])
    return None


def strong_hh_witness(g: Graph) -> tuple[str, tuple[int, ...]] | None:
    """Scan for an induced forbidden subgraph: subsets by increasing size
    (5 before 6), lexicographically within a size, catalog order within a
    subset. Returns the first hit as (catalog name, sorted host vertices
    inducing it), or None when g is in the class.

    Only the core left by _peel is scanned: a vertex isolated or dominating
    among those left is so in every subset of them, and no forbidden graph
    has such a vertex, so every copy lies in the core. The scan walks the
    core's vertices in increasing order under g's own labels, so its first
    copy is g's first copy."""
    core = _peel(g.adj)
    verts = iter_bits(core)
    # -(2 << v) keeps the bits above v; a peeled vertex's entry is never read
    above = [iter_bits(a & core & -(2 << v)) for v, a in enumerate(g.adj)]
    rows = [0] * g.n  # all zeros again after a scan that finds nothing
    for levels in _copy_tables():
        if len(levels) > len(verts):
            break
        hit = _extend_copy(verts, above, rows, levels, 0, 0, 0)
        if hit:
            return hit
    return None


def is_matrogenic_config_free(g: Graph) -> bool:
    """True iff g has no five distinct vertices v, w, u, x, y with edges
    vw, ux, uy and non-edges uv, wx, wy (the remaining four pairs are
    unconstrained). Graphs avoiding this configuration are exactly the
    matrogenic graphs."""
    n, adj = g.n, g.adj
    for u in range(n):
        au = adj[u]
        if au.bit_count() < 2:
            continue
        for v in range(n):
            if v == u or au >> v & 1:
                continue
            # w != u and x, y != v, since u and v are not adjacent
            for w in iter_bits(adj[v]):
                if (au & ~adj[w] & ~(1 << w)).bit_count() >= 2:
                    return False
    return True


def _peel(adj) -> int:
    """The mask of the core of the graph with these neighbourhoods: what is
    left after deleting, one at a time until none remains, a vertex that is
    isolated or dominating among the vertices still left. Such a vertex
    stays isolated or dominating in every subset of those vertices that
    contains it, so the core does not depend on the order of deletions,
    and, since no forbidden graph has such a vertex, every induced copy of
    one lies in the core."""
    left = (1 << len(adj)) - 1
    while left:
        full = left.bit_count() - 1  # degree of a dominating vertex among those left
        for v in iter_bits(left):
            d = (adj[v] & left).bit_count()
            if d == 0 or d == full:
                left ^= 1 << v
                break
        else:
            break
    return left


def is_threshold(g: Graph) -> bool:
    """True iff g empties by repeatedly deleting an isolated or a
    dominating vertex (Chvatal and Hammer, 1977), that is, iff _peel
    leaves an empty core. Either deletion keeps the answer, since
    threshold graphs are closed under induced subgraphs and under adding
    such a vertex."""
    return not _peel(g.adj)
