"""Second routes that only the tests call: each checks an exact answer of
the package by a different computation, so none of them ships in it."""

import itertools
from collections.abc import Iterable

from hhresidue.enumeration import _match, vertex_invariants
from hhresidue.graphs import Graph, iter_bits


def has_hh_property(g: Graph, v: int) -> bool:
    """True iff v has maximum degree and min degree over N(v) is at least
    the max degree over the non-neighbors of v (vacuous when either side
    is empty). The definitional oracle's reference, vertex by vertex."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    deg = g.degrees
    if deg[v] != max(deg):
        return False
    nbr = g.adj[v]
    nbr_degs = [deg[u] for u in iter_bits(nbr)]
    non_degs = [deg[u] for u in range(g.n) if u != v and not nbr >> u & 1]
    if not nbr_degs or not non_degs:
        return True
    return min(nbr_degs) >= max(non_degs)


def is_graphical_erdos_gallai(seq: Iterable[int]) -> bool:
    """Graphicality by the Erdos-Gallai inequalities (1960): even sum plus
    sum(d_1..d_k) <= k(k-1) + sum(min(d_i, k) for i > k) for every k."""
    d = sorted(seq, reverse=True)
    if sum(d) % 2:
        return False
    n = len(d)
    prefix = 0
    for k in range(1, n + 1):
        prefix += d[k - 1]
        if prefix > k * (k - 1) + sum(min(x, k) for x in d[k:]):
            return False
    return True


def graph6_reference(g: Graph) -> str:
    """g in graph6, written from the format description alone: the order as
    one byte for n <= 62, else 63 and three six-bit groups; then one bit per
    pair (i, j), i < j, in the order (0,1),(0,2),(1,2),(0,3),..., six bits to
    a byte, first pair most significant, zero bits up to a whole byte; each
    byte is its six-bit value plus 63. The reference for hhresidue.graph6."""
    n = g.n
    values = [n] if n <= 62 else [63, n >> 12, n >> 6 & 63, n & 63]
    bits = [g.adj[j] >> i & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    for k in range(0, len(bits), 6):
        v = 0
        for b in bits[k:k + 6]:
            v = 2 * v + b
        values.append(v)
    return "".join(chr(v + 63) for v in values)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Induced subgraph on the given vertices, relabeled densely: new
    vertex i is sorted(set(vertices))[i]."""
    vs = sorted(set(vertices))
    if vs and not (0 <= vs[0] and vs[-1] < g.n):
        raise ValueError("vertex out of range")
    k = len(vs)
    adj = [0] * k
    for i in range(k):
        av = g.adj[vs[i]]
        for j in range(i + 1, k):
            if av >> vs[j] & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph._from_adj(k, tuple(adj))


def automorphism_count(adj: tuple[int, ...]) -> int:
    """|Aut G| of the graph with these neighbourhoods, by the
    orbit-stabilizer chain: the product over i of the size of vertex i's
    orbit under the automorphisms that fix vertices 0..i-1. A vertex w is
    in that orbit when the map fixing 0..i-1 and sending i to w extends to
    an automorphism, found by a backtracking search that reads only
    degrees and adjacency to the vertices already mapped. It shares
    nothing with the enumeration's vertex_invariants or its matcher.

    The chain runs from the last vertex down, so every automorphism found
    so far fixes 0..i-1; the orbit of i is closed under them, and only a
    vertex outside that closure needs a search of its own."""
    by_degree: dict[int, list[int]] = {}
    for v, a in enumerate(adj):
        by_degree.setdefault(a.bit_count(), []).append(v)
    cands = [by_degree[a.bit_count()] for a in adj]
    found: list[list[int]] = []
    count = 1
    for i in reversed(range(len(adj))):
        orbit = {i}
        for w in cands[i]:
            if w in orbit:
                continue
            perm = _automorphism_from(adj, cands, list(range(i)), w)
            if perm is None:
                continue
            found.append(perm)
            todo = list(orbit)
            while todo:
                x = todo.pop()
                for p in found:
                    if p[x] not in orbit:
                        orbit.add(p[x])
                        todo.append(p[x])
        count *= len(orbit)
    return count


def _automorphism_from(adj, cands, image: list[int], w: int) -> list[int] | None:
    """An automorphism, as the list of its images, that sends each vertex
    u < len(image) to image[u] and vertex len(image) to w, or None when
    there is none. Vertex v maps only into cands[v], the vertices of its
    degree, and vertices map in label order."""
    v = len(image)
    if w in image:
        return None
    a, b = adj[v], adj[w]
    for u, x in enumerate(image):
        if (a >> u & 1) != (b >> x & 1):
            return None
    image = [*image, w]
    if v + 1 == len(adj):
        return image
    for x in cands[v + 1]:
        perm = _automorphism_from(adj, cands, image, x)
        if perm is not None:
            return perm
    return None


def copy_tables_by_pairs(catalog) -> tuple:
    """recognition._copy_tables for the given catalog, built pair by pair:
    the copy whose position p holds vertex perm[p] sets the bit
    j*(j-1)//2 + i of each position pair i < j with perm[i] ~ perm[j],
    and its code so far, before each position j >= 1 is added, joins the
    level of the first j positions. The reference for the build from edge
    lists."""
    by_order: dict[int, list] = {}
    for name, h in catalog.items():
        levels = by_order.setdefault(h.n, [*(set() for _ in range(h.n - 1)), {}])
        for perm in itertools.permutations(range(h.n)):
            code = 0
            for j in range(1, h.n):
                levels[j - 1].add(code)
                a = h.adj[perm[j]]
                for i in range(j):
                    if a >> perm[i] & 1:
                        code |= 1 << (j * (j - 1) // 2 + i)
            levels[-1].setdefault(code, name)
    return tuple(levels for _, levels in sorted(by_order.items()))


def invariant_triples(g: Graph) -> list[tuple[int, int, tuple[int, ...]]]:
    """Per vertex, (degree, triangles through it, sorted neighbour degrees):
    the triple that the enumeration's vertex_invariants key orders as, and
    the reference the tests check that key against."""
    adj, deg = g.adj, g.degrees
    return [
        (
            deg[v],
            sum((adj[u] & a).bit_count() for u in iter_bits(a)) // 2,
            tuple(sorted(deg[u] for u in iter_bits(a))),
        )
        for v, a in enumerate(adj)
    ]


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """True iff an adjacency-preserving bijection between g and h exists:
    the enumeration's matcher, run when the sorted invariant lists agree,
    so for orders at most 16. Not a second route itself; the tests check
    it against brute force and networkx."""
    if g.n != h.n:
        return False
    ig, ih = vertex_invariants(g), vertex_invariants(h)
    return sorted(ig) == sorted(ih) and _match(g.adj, ig, h.adj, ih)


def isomorphism_class_count_labeled(n: int) -> int:
    """Count the classes of order n by enumerating all 2^C(n,2) labeled
    graphs and deduplicating by isomorphism tests within degree-sequence
    buckets (no augmentation). Exponential: meant for n <= 5."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    reps_by_degseq: dict[tuple[int, ...], list[Graph]] = {}
    count = 0
    for mask in range(1 << len(pairs)):
        g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        bucket = reps_by_degseq.setdefault(g.degree_sequence(), [])
        if not any(is_isomorphic(g, r) for r in bucket):
            bucket.append(g)
            count += 1
    return count


def to_networkx(g: Graph):
    """g as a networkx Graph on nodes 0..n-1, added in that order (the
    order networkx's graph6 writer labels them in). networkx is imported
    here, not at module level, so the other oracles work without it."""
    import networkx as nx

    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges())
    return ng
