"""Exhaustive generation of all isomorphism classes of small graphs.

Representatives of order n are grown from those of order n-1 by attaching
a new vertex, but only with neighborhoods that make it a minimum-degree
vertex of the result. Only those are generated: with k neighbours, every
vertex of degree k-1 is among them and the rest come from the vertices of
degree at least k, so k is at most the minimum degree plus one.

The module owns the package's one vertex invariant and its one
isomorphism matcher. The invariant of vertex v, :func:`vertex_invariants`,
is the triple (degree, triangles through v, sorted neighbour degrees). An
isomorphism maps every vertex to one with the same triple, so isomorphic
graphs have equal sorted lists. A candidate is dropped unless the new
vertex has the least entry of its list (the cheap half of McKay's
canonical augmentation). That list, which holds the parent's degrees, is
computed once per parent and derived from it for each candidate: only the
new vertex's neighbours and theirs get new entries, and a candidate whose
new vertex has more triangles than a rival of its degree is dropped before
any entry is built. The sweep is complete: the invariant is
isomorphism-invariant, so every graph on n vertices is its
least-invariant-vertex-deleted subgraph plus that vertex. The sorted list
is a kept candidate's bucket key, and the candidate, still a plain
adjacency tuple, is built as a :class:`Graph` only when the matcher, a
backtracking search that maps each vertex only to vertices with the same
triple, rejects every representative already in its bucket. Buckets live
for one order only. Results are cached per order and listed in generation
order, so repeated sweeps are cheap and deterministic.

The new vertex is always n-1 and the old adjacencies are copied
unchanged, so the representative of order n-1 that a representative was
grown from, its parent, is its induced subgraph on vertices 0..n-2, with
the same labels: its prefix. The definitional oracle reuses a prefix's
kept answer (see :func:`hhresidue.recognition.definitional_violation`),
so a sweep over the classes order by order finds each parent's answer
already kept.
"""

from __future__ import annotations

from itertools import combinations

from .graphs import Graph, check_order, iter_bits

_cache: dict[int, list[Graph]] = {}


def enumerate_graphs(n: int) -> list[Graph]:
    """All isomorphism classes of simple graphs on n vertices, one
    representative each, in generation order."""
    check_order("enumeration", n, lo=1)
    cached = _cache.get(n)
    if cached is not None:
        return cached
    if n == 1:
        reps = [Graph(1)]
    else:
        reps = []
        buckets: dict[tuple, list[tuple[tuple[int, ...], list]]] = {}
        new_bit = 1 << (n - 1)
        for g in enumerate_graphs(n - 1):
            g_inv = vertex_invariants(g)
            g_deg = [t[0] for t in g_inv]
            for pattern in _min_degree_patterns(g_deg):
                inv = _child_invariants(g.adj, g_deg, g_inv, pattern)
                if inv is None:
                    continue
                adj = [*g.adj, pattern]
                for u in iter_bits(pattern):
                    adj[u] |= new_bit
                adj = tuple(adj)
                bucket = buckets.setdefault(tuple(sorted(inv)), [])
                if not any(_match(adj, inv, r, r_inv) for r, r_inv in bucket):
                    bucket.append((adj, inv))
                    reps.append(Graph._from_adj(n, adj))
    _cache[n] = reps
    return reps


def _min_degree_patterns(degrees: list[int]) -> list[int]:
    """Every neighbourhood mask that makes a new vertex, attached to a
    graph with these degrees, a minimum-degree vertex of the result, in
    ascending order."""
    patterns = []
    for k in range(min(degrees) + 2):
        forced = sum(1 << u for u, d in enumerate(degrees) if d == k - 1)
        free = [1 << u for u, d in enumerate(degrees) if d >= k]
        r = k - forced.bit_count()
        if r >= 0:
            patterns.extend(forced + sum(c) for c in combinations(free, r))
    patterns.sort()
    return patterns


def vertex_invariants(g: Graph) -> list[tuple[int, int, tuple[int, ...]]]:
    """The invariant of the module docstring, vertex by vertex."""
    adj, deg = g.adj, g.degrees
    return [
        (
            deg[v],
            sum((adj[u] & a).bit_count() for u in iter_bits(a)) // 2,
            tuple(sorted(deg[u] for u in iter_bits(a))),
        )
        for v, a in enumerate(adj)
    ]


def _child_invariants(adj: tuple[int, ...], g_deg: list[int], g_inv: list, pattern: int) -> list | None:
    """The vertex_invariants list of parent adj, with degrees g_deg and list
    g_inv, plus a new vertex adjacent to the pattern, or None unless the new
    vertex has the least entry; the pattern must leave it of minimum degree.
    A pattern vertex gains one degree and a triangle per pattern neighbour,
    the new vertex has one triangle per edge inside the pattern, and only
    the pattern's vertices and their neighbours get new neighbour degrees."""
    inside = iter_bits(pattern)
    gained = {u: (adj[u] & pattern).bit_count() for u in inside}
    k, tri = len(inside), sum(gained.values()) // 2
    deg = g_deg.copy()
    for u in inside:
        deg[u] += 1
    # its rivals have degree k: compare (degree, triangles) before any tuple
    for u, d in enumerate(deg):
        if d == k and g_inv[u][1] + gained.get(u, 0) < tri:
            return None
    deg.append(k)
    new_bit = 1 << len(adj)
    near = 0
    inv = g_inv.copy()
    for u in inside:
        a = adj[u]
        near |= a
        inv[u] = (deg[u], g_inv[u][1] + gained[u], tuple(sorted([deg[w] for w in iter_bits(a | new_bit)])))
    for u in iter_bits(near & ~pattern):
        inv[u] = (deg[u], g_inv[u][1], tuple(sorted([deg[w] for w in iter_bits(adj[u])])))
    inv.append((k, tri, tuple(sorted([deg[w] for w in inside]))))
    return inv if inv[-1] == min(inv) else None


def _match(g: tuple[int, ...], ig: list, h: tuple[int, ...], ih: list) -> bool:
    """True iff an isomorphism maps the adjacency tuple g onto h and each
    vertex to one with the same invariant; ig and ih are the graphs'
    vertex_invariants and must be equal as sorted lists."""
    n = len(g)
    by_class: dict[tuple, list[int]] = {}
    for w in range(n):
        by_class.setdefault(ih[w], []).append(w)
    # map rare classes first
    order = sorted(range(n), key=lambda v: (len(by_class[ig[v]]), ig[v], v))
    return _extend_match(g, h, order, [by_class[ig[v]] for v in order], [])


def _extend_match(g: tuple, h: tuple, order: list[int], cands: list, image: list[int]) -> bool:
    """_match's backtracking: order[j] maps to image[j] and may map only
    into cands[j]. Each position takes the first unused candidate whose
    adjacencies to the images so far agree; False leaves image unchanged."""
    i = len(image)
    if i == len(order):
        return True
    av = g[order[i]]
    for w in cands[i]:
        if w in image:
            continue
        hw = h[w]
        for j in range(i):
            if (av >> order[j] & 1) != (hw >> image[j] & 1):
                break
        else:
            image.append(w)
            if _extend_match(g, h, order, cands, image):
                return True
            image.pop()
    return False
