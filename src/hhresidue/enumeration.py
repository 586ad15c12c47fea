"""Exhaustive generation of all isomorphism classes of small graphs.

Representatives of order n are grown from those of order n-1 by attaching
a new vertex, but only with neighborhoods that make it a minimum-degree
vertex of the result. Only those are generated: with k neighbours, every
vertex of degree k-1 is among them and the rest come from the vertices of
degree at least k, so k is at most the minimum degree plus one.

Of those, a parent keeps one pattern per orbit of its twin swaps. Vertices
u and w are twins when N(u) - {w} = N(w) - {u}: non-adjacent with equal
open neighbourhoods, or adjacent with equal closed ones. Twinship is an
equivalence, and any permutation inside a twin class is an automorphism
of the parent. Twins have equal degrees, so the permutation maps patterns
to patterns. A pattern is kept only if, in every twin class, it takes the
class's lowest labels; this is the orbit half of McKay's canonical
augmentation ("Isomorph-free exhaustive generation", J. Algorithms 26,
1998). A dropped pattern has a kept image that is numerically smaller,
so it comes earlier from the same parent, and it gives an isomorphic
child whose new vertex, fixed by the permutation, has the same key. The
first candidate of each class in generation order is thus never dropped,
and the representatives, their labels and their order are those the
matcher alone would keep.

The module owns the package's one vertex invariant and its one
isomorphism matcher. The invariant of vertex v, :func:`vertex_invariants`,
is one int: v's degree from bit 72 up, the triangles through v in bits
64..71, and below them 2**64 - 1 less v's neighbour-degree histogram, in
which a neighbour of degree d weighs 16**(15 - d). Up to order 16 no digit
carries, so ints of equal degree and triangles order as the sorted
neighbour degrees do: the smaller tuple, at its first difference, holds
more of the smaller value. An isomorphism maps every vertex to one with
the same int, so isomorphic graphs have equal sorted lists. A candidate
is dropped unless the new vertex has the least key of its list (a cheap
form of McKay's other test, that the new vertex be canonical). The
parent's keys are computed once per parent, and each candidate's are
derived from them by integer adds: only the new vertex, its neighbours
and theirs change. The sweep is complete: the invariant is
isomorphism-invariant, so every graph on n vertices is its
least-invariant-vertex-deleted subgraph plus that vertex.
The sorted key list is a kept candidate's bucket key, and the candidate,
still a plain adjacency tuple, is built as a :class:`Graph` only when the
matcher, a backtracking search that maps the vertices in label order,
each only to one with the same key, rejects every representative already
in its bucket.

A candidate whose new vertex holds the unique least key goes to buckets
that live for its parent only; one with a tied least key goes to buckets
shared by the whole order. The output is the same as with shared buckets
alone. Let C be a candidate whose new vertex v holds the unique least
key, and let C' be isomorphic to C, grown from parent P' with new vertex
v' of least key in C'. An isomorphism C' -> C preserves keys, so it maps
v' to v. So P' is isomorphic to C - v = P, and since parents are
pairwise non-isomorphic, P' = P. Having a unique least key is an
isomorphism invariant, so C' goes to the per-parent buckets too. So the
candidates isomorphic to C all meet in P's buckets, and the first of
each class in generation order is kept, as before. Only the shared
buckets last the whole order, so only the classes with a tied least key
keep their key lists until the order ends. Results are cached per order
and listed in generation order, so repeated sweeps are cheap and
deterministic.

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
        buckets: dict[tuple[int, ...], list[tuple[tuple[int, ...], list[int]]]] = {}
        new_bit = 1 << (n - 1)
        for g in enumerate_graphs(n - 1):
            g_deg = g.degrees
            g_key = vertex_invariants(g)
            own: dict[tuple[int, ...], list[tuple[tuple[int, ...], list[int]]]] = {}
            for pattern in _twin_orbit_patterns(g.adj, g_deg):
                key = _child_invariants(g.adj, g_deg, g_key, pattern)
                if key is None:
                    continue
                adj = [*g.adj, pattern]
                for u in iter_bits(pattern):
                    adj[u] |= new_bit
                adj = tuple(adj)
                sorted_key = tuple(sorted(key))
                # a unique least key pins the parent: see the module docstring
                bucket = (own if sorted_key[0] < sorted_key[1] else buckets).setdefault(sorted_key, [])
                if not any(_match(adj, key, r, r_key) for r, r_key in bucket):
                    bucket.append((adj, key))
                    reps.append(Graph._from_adj(n, adj))
    _cache[n] = reps
    return reps


def _min_degree_patterns(degrees: tuple[int, ...]) -> list[int]:
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


def _twin_orbit_patterns(adj: tuple[int, ...], degrees: tuple[int, ...]) -> list[int]:
    """The _min_degree_patterns of a parent with this adjacency and these
    degrees that take the lowest labels of each twin class they meet: the
    least pattern of each orbit of the twin swaps, in ascending order."""
    patterns = _min_degree_patterns(degrees)
    for v, low in enumerate(_lower_twins(adj)):
        if low:
            # drop the patterns that hold v but not its next-lower twin
            bit = 1 << v
            patterns = [p for p in patterns if p & (bit | low) != bit]
    return patterns


def _lower_twins(adj: tuple[int, ...]) -> list[int]:
    """For each vertex v, 1 << u for its next-lower twin u, the greatest
    u < v with N(u) - {v} = N(v) - {u}, or 0 when v has none. Twins are
    either non-adjacent with equal open neighbourhoods or adjacent with
    equal closed ones, and no vertex has one of each kind."""
    open_twin: dict[int, int] = {}
    closed_twin: dict[int, int] = {}
    lower = []
    for v, a in enumerate(adj):
        closed = a | 1 << v
        lower.append(open_twin.get(a, 0) | closed_twin.get(closed, 0))
        open_twin[a] = closed_twin[closed] = 1 << v
    return lower


# the key's fields, as the module docstring sets them out
_LOW = (1 << 64) - 1
_WEIGHT = [16 ** (15 - d) for d in range(16)]
# what a vertex's key rises by when a neighbour's degree rises from d to d + 1
_RAISE = [_WEIGHT[d] - _WEIGHT[d + 1] for d in range(15)]


def vertex_invariants(g: Graph) -> list[int]:
    """The invariant of the module docstring, vertex by vertex, for graphs
    of order at most 16: above that a histogram digit can carry."""
    adj, deg = g.adj, g.degrees
    return [
        deg[v] << 72
        | sum((adj[u] & a).bit_count() for u in iter_bits(a)) // 2 << 64
        | _LOW - sum([_WEIGHT[deg[u]] for u in iter_bits(a)])
        for v, a in enumerate(adj)
    ]


def _child_invariants(adj: tuple[int, ...], g_deg: tuple[int, ...], g_key: list[int], pattern: int) -> list[int] | None:
    """The vertex_invariants of parent adj, with degrees g_deg and keys
    g_key, plus a new vertex adjacent to the pattern, or None unless the
    new vertex's key is least; the pattern must leave it of minimum degree.
    A pattern vertex gains one degree, a triangle per pattern neighbour and
    the new vertex in its histogram, and raises the key of each of its
    parent neighbours as its own degree rises; the new vertex has one
    triangle per edge inside the pattern."""
    inside = iter_bits(pattern)
    k = len(inside)
    gain = (1 << 72) - _WEIGHT[k]
    key = g_key.copy()
    low, ends = _LOW, 0
    for u in inside:
        a, d = adj[u], g_deg[u]
        t = (a & pattern).bit_count()
        ends += t
        key[u] += gain + (t << 64)
        low -= _WEIGHT[d + 1]
        rise = _RAISE[d]
        for w in iter_bits(a):
            key[w] += rise
    new = k << 72 | ends // 2 << 64 | low
    if new > min(key):
        return None
    key.append(new)
    return key


def _match(g: tuple[int, ...], ig: list[int], h: tuple[int, ...], ih: list[int]) -> bool:
    """True iff an isomorphism maps the adjacency tuple g onto h and each
    vertex to one with the same key; ig and ih hold the graphs'
    vertex_invariants and must be equal as sorted lists."""
    by_key: dict[int, list[int]] = {}
    for w, key in enumerate(ih):
        by_key.setdefault(key, []).append(w)
    return _extend_match(g, h, [by_key[key] for key in ig], [])


def _extend_match(g: tuple, h: tuple, cands: list, image: list[int]) -> bool:
    """_match's backtracking: vertex i of g maps to image[i] and may map
    only into cands[i], the vertices of h with its key. Vertices map in
    label order, each to the first unused candidate whose adjacencies to
    the images so far agree; False leaves image unchanged."""
    i = len(image)
    if i == len(cands):
        return True
    av = g[i]
    for w in cands[i]:
        if w in image:
            continue
        hw = h[w]
        for j in range(i):
            if (av >> j & 1) != (hw >> image[j] & 1):
                break
        else:
            image.append(w)
            if _extend_match(g, h, cands, image):
                return True
            image.pop()
    return False
