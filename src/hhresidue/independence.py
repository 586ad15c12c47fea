"""Exact maximum independent sets and the Maxine max-degree-deletion
heuristic.

Two exact routes to the independence number cross-check each other:
plain branching on a maximum-degree vertex once no vertex of degree 0
or 1 is left, and an exhaustive sweep over every independent set, grown
depth first one higher vertex at a time, kept only as the reference.
Branching also tells whether a vertex v lies in every maximum
independent set: exactly when alpha(G - v) < alpha(G). Maxine can be
run once with a fixed tie-breaking strategy, giving its deletion order
(the survivors are the vertices not deleted), or branched over every
choice of maximum-degree vertex, collecting the full set of achievable
independent-set sizes. Maxine's branching stops where it can predict
the size exactly: at maximum degree 1 the residual graph is a matching
plus isolated vertices, so every run ends at one size.
"""

from __future__ import annotations

import random

from .graphs import Graph, check_order, iter_bits


def independence_number(g: Graph) -> int:
    """Exact independence number by plain branching. A vertex of degree 0
    or 1 among those left is taken without branching, and its closed
    neighbourhood removed: some maximum independent set contains it, since
    swapping its one neighbour for it keeps a set independent and of the
    same size. When every vertex left has degree at least 2, branch on one
    v of maximum degree: take it (removing N[v]) or delete it, with no
    bound. The search stays small: at degree 3 or more, taking v removes
    at least 4 vertices, so the tree has at most about 1.38^n leaves; at
    maximum degree 2 the graph left is a union of cycles, and either
    branch at a cycle leaves a path, which peels."""
    check_order("alpha", g.n)
    return _alpha(g.adj, (1 << g.n) - 1)


def _alpha(adj: tuple[int, ...], mask: int) -> int:
    """The independence number of the subgraph induced by mask."""
    size = 0
    taken = True
    while taken:
        # a pass takes each vertex of degree <= 1 it meets and notes a
        # maximum-degree vertex; a take can lower degrees already read,
        # so passes repeat until one takes nothing
        taken, vbest, dbest = False, -1, 1
        for v in iter_bits(mask):
            if not mask >> v & 1:
                continue  # the neighbour of a vertex taken this pass
            nbrs = adj[v] & mask
            dv = nbrs.bit_count()
            if dv <= 1:
                mask ^= 1 << v | nbrs
                size += 1
                taken = True
            elif dv > dbest:
                vbest, dbest = v, dv
    if not mask:
        return size
    bit = 1 << vbest
    return size + max(1 + _alpha(adj, mask & ~(adj[vbest] | bit)), _alpha(adj, mask ^ bit))


def independence_number_without(g: Graph, v: int) -> int:
    """alpha(g - v), by the branching route; less than alpha(g) exactly
    when v lies in every maximum independent set of g."""
    check_order("alpha", g.n)
    return _alpha(g.adj, ((1 << g.n) - 1) ^ 1 << v)


def independence_number_bitmask(g: Graph) -> int:
    """Exhaustive oracle: visit every independent set once, depth first.
    Independent of the branching route."""
    check_order("subset sweep", g.n)
    return _largest_extension(g.adj, (1 << g.n) - 1)


def _largest_extension(adj: tuple[int, ...], cand: int) -> int:
    """The largest number of vertices of cand that extend the current set:
    a set is extended by each higher vertex adjacent to none of its
    members, so each independent set is visited once."""
    best = 0
    for v in iter_bits(cand):
        # -(2 << v) keeps the bits above v
        size = _largest_extension(adj, cand & ~adj[v] & -(2 << v))
        if size >= best:
            best = size + 1
    return best


def _max_degree_candidates(adj: tuple[int, ...], mask: int) -> tuple[int, list[int]]:
    dmax = -1
    cands: list[int] = []
    for v in iter_bits(mask):
        dv = (adj[v] & mask).bit_count()
        if dv > dmax:
            dmax = dv
            cands = [v]
        elif dv == dmax:
            cands.append(v)
    return dmax, cands


def maxine_run(g: Graph, strategy: str = "first", seed: int | None = None) -> tuple[int, ...]:
    """The deletion order of one Maxine run: while any edge remains,
    delete a vertex of maximum degree. The vertices not deleted form an
    independent set, of size g.n minus the number of deletions.

    strategy picks among tied maximum-degree vertices: "first" or "last"
    take the lowest/highest original label, "random" draws from a
    random.Random seeded with ``seed``.
    """
    if strategy not in ("first", "last", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = random.Random(seed) if strategy == "random" else None
    adj = g.adj
    mask = (1 << g.n) - 1
    deletions: list[int] = []
    while True:
        dmax, cands = _max_degree_candidates(adj, mask)
        if dmax <= 0:
            break
        if strategy == "first":
            v = cands[0]
        elif strategy == "last":
            v = cands[-1]
        else:
            v = rng.choice(cands)
        deletions.append(v)
        mask ^= 1 << v
    return tuple(deletions)


def maxine_all_branches(g: Graph) -> tuple[int, ...]:
    """Exact independent-set sizes achievable by Maxine on g over every
    choice of maximum-degree vertex at every step, in ascending order.
    Each residual vertex set determines the rest of any run, so it is
    explored once, memoised as a mask with bit s set for each size s it
    can reach.

    At maximum degree 1 the residual graph is a matching plus isolated
    vertices, and every run deletes one end of each edge, so it ends at
    the residual size minus half the candidates, without branching."""
    check_order("maxine branching", g.n)
    return iter_bits(_maxine_sizes(g.adj, (1 << g.n) - 1, {}))


def _maxine_sizes(adj: tuple[int, ...], mask: int, memo: dict[int, int]) -> int:
    """The sizes Maxine can reach from the residual set mask, as a mask
    with bit s set for each size s."""
    got = memo.get(mask)
    if got is not None:
        return got
    dmax, cands = _max_degree_candidates(adj, mask)
    if dmax <= 0:
        sizes = 1 << mask.bit_count()
    elif dmax == 1:
        sizes = 1 << (mask.bit_count() - len(cands) // 2)
    else:
        sizes = 0
        for v in cands:
            sizes |= _maxine_sizes(adj, mask ^ 1 << v, memo)
    memo[mask] = sizes
    return sizes
