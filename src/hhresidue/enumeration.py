"""Exhaustive generation of all isomorphism classes of small graphs.

Representatives of order n are grown from those of order n-1 by attaching a
new vertex, but only with neighborhoods that make it a minimum-degree
vertex of the result. Each such candidate's
:func:`~hhresidue.graphs.vertex_invariants` list is computed once, and the
candidate is dropped unless the new vertex has the least entry in it (the
cheap half of McKay's canonical augmentation). The sweep is complete: the
invariant is isomorphism-invariant, so every graph on n vertices is its
least-invariant-vertex-deleted subgraph plus that vertex. The sorted list
is a kept candidate's bucket key, and the candidate becomes a
representative only when the isomorphism matcher, fed the stored lists,
rejects every representative already in its bucket. Buckets live for one
order only. Results are cached per order and listed in generation order,
so repeated sweeps are cheap and deterministic.

The new vertex is always n-1 and the old adjacencies are copied
unchanged, so the representative of order n-1 that a representative was
grown from, its parent, is its induced subgraph on vertices 0..n-2, with
the same labels: its prefix. The definitional oracle reuses a prefix's
kept answer (see :func:`hhresidue.recognition.definitional_violation`),
so a sweep over the classes order by order finds each parent's answer
already kept.
"""

from __future__ import annotations

from .graphs import Graph, _match, check_order, is_isomorphic, iter_bits, vertex_invariants

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
        buckets: dict[tuple, list[tuple[Graph, list]]] = {}
        new_bit = 1 << (n - 1)
        for g in enumerate_graphs(n - 1):
            base, deg = g.adj, g.degrees
            for pattern in range(1 << (n - 1)):
                k = pattern.bit_count()
                # the new vertex must have minimum degree in the result
                if any(k > d + (pattern >> u & 1) for u, d in enumerate(deg)):
                    continue
                adj = list(base)
                adj.append(pattern)
                for u in iter_bits(pattern):
                    adj[u] |= new_bit
                h = Graph._from_adj(n, tuple(adj))
                inv = vertex_invariants(h)
                # the new vertex must also have the least invariant
                if inv[-1] != min(inv):
                    continue
                bucket = buckets.setdefault(tuple(sorted(inv)), [])
                if not any(_match(h, inv, r, r_inv) for r, r_inv in bucket):
                    bucket.append((h, inv))
                    reps.append(h)
    _cache[n] = reps
    return reps


def isomorphism_class_count_labeled(n: int) -> int:
    """Independent count oracle: enumerate all 2^C(n,2) labeled graphs and
    deduplicate by isomorphism tests within degree-sequence buckets (no
    augmentation). Exponential, hence its scale bound."""
    check_order("labeled count", n)
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
