"""Recognizers built on the vertex-level Havel-Hakimi property.

A vertex has the Havel-Hakimi property when it has maximum degree and none
of its neighbors has smaller degree than any of its non-neighbors; deleting
such a vertex changes the degree sequence exactly like one reduction step.
A graph is *strong Havel-Hakimi* when every maximum-degree vertex of every
induced subgraph has the property. Two independent recognizers are
provided: the definitional subset sweep, which also names the first
violating subset, and a scan for the nine minimal forbidden induced
subgraphs. The module also tests the five-vertex configuration whose
absence characterizes matrogenic graphs, and threshold graphs via their
{2K2, C4, P4}-free characterization. Every induced-subgraph scan goes
through one helper.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .catalog import FORBIDDEN_SUBGRAPHS, complete, cycle, disjoint_union, path
from .graphs import Graph, induced_subgraph, is_isomorphic, iter_bits

DEFINITIONAL_MAX_N = 12


def has_hh_property(g: Graph, v: int) -> bool:
    """True iff v has maximum degree and min degree over N(v) is at least
    the max degree over the non-neighbors of v (vacuous when either side
    is empty)."""
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


def definitional_violation(g: Graph) -> int | None:
    """Definitional oracle: the first nonempty vertex subset, as a bitmask
    in increasing numeric order, on which some maximum-degree vertex of the
    induced subgraph lacks the Havel-Hakimi property; None when there is
    none, that is, when g is strong Havel-Hakimi. Every proper subset of a
    set has a smaller mask, so g is minimal forbidden exactly when the
    answer is its full vertex set. Cost 2^n * poly(n), hence the scale
    bound."""
    if g.n > DEFINITIONAL_MAX_N:
        raise ValueError(f"graph order {g.n} exceeds definitional-oracle bound {DEFINITIONAL_MAX_N}")
    n, adj = g.n, g.adj
    for mask in range(1, 1 << n):
        verts = list(iter_bits(mask))
        degs = [(adj[v] & mask).bit_count() for v in verts]
        dmax = max(degs)
        for v, dv in zip(verts, degs):
            if dv != dmax:
                continue
            nbm = adj[v] & mask
            non = mask & ~nbm & ~(1 << v)
            if not nbm or not non:
                continue
            mn = min((adj[u] & mask).bit_count() for u in iter_bits(nbm))
            mx = max((adj[u] & mask).bit_count() for u in iter_bits(non))
            if mn < mx:
                return mask
    return None


def is_strong_havel_hakimi_definitional(g: Graph) -> bool:
    """Definitional recognizer: no vertex subset violates the property."""
    return definitional_violation(g) is None


@dataclass(frozen=True)
class ForbiddenWitness:
    """An induced occurrence of a forbidden graph: its catalog name and the
    host vertices inducing it (sorted)."""

    name: str
    vertices: tuple[int, ...]


def _by_size(targets: list[Graph]) -> list[tuple[int, list]]:
    """Targets grouped by order, ascending: (order, [(index into targets,
    target, its degree sequence)])."""
    groups: dict[int, list] = {}
    for i, h in enumerate(targets):
        groups.setdefault(h.n, []).append((i, h, h.degree_sequence()))
    return sorted(groups.items())


def _first_induced(g: Graph, groups) -> tuple[int, tuple[int, ...]] | None:
    """First induced copy of a target in g, as (target index, sorted host
    vertices): subsets by increasing size, lexicographically within a
    size, target order within a subset. Degree sequences filter before the
    isomorphism test. groups comes from _by_size."""
    for size, members in groups:
        if size > g.n:
            break
        for sub in itertools.combinations(range(g.n), size):
            mask = 0
            for v in sub:
                mask |= 1 << v
            degs = tuple(sorted(((g.adj[v] & mask).bit_count() for v in sub), reverse=True))
            for i, h, hdegs in members:
                if degs == hdegs and is_isomorphic(induced_subgraph(g, sub), h):
                    return i, sub
    return None


def contains_induced(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """First vertex subset of g (lexicographic order) inducing a copy of h,
    or None."""
    hit = _first_induced(g, _by_size([h]))
    return None if hit is None else hit[1]


_FORB_NAMES = list(FORBIDDEN_SUBGRAPHS)
_FORB_GROUPS = _by_size(list(FORBIDDEN_SUBGRAPHS.values()))


def strong_hh_witness(g: Graph) -> ForbiddenWitness | None:
    """Scan for an induced forbidden subgraph: subsets by increasing size
    (5 before 6), lexicographically within a size, catalog order within a
    subset. Returns the first hit, or None when g is in the class."""
    hit = _first_induced(g, _FORB_GROUPS)
    return None if hit is None else ForbiddenWitness(_FORB_NAMES[hit[0]], hit[1])


def is_strong_havel_hakimi(g: Graph) -> bool:
    """Forbidden-subgraph recognizer; agrees with the definitional oracle
    (a fact the harness re-checks by enumeration)."""
    return strong_hh_witness(g) is None


@dataclass(frozen=True)
class ConfigWitness:
    """Five distinct vertices with edges vw, ux, uy and non-edges uv, wx,
    wy (the remaining four pairs are unconstrained)."""

    v: int
    w: int
    u: int
    x: int
    y: int


def find_matrogenic_config(g: Graph) -> ConfigWitness | None:
    """First occurrence (ascending u, v, w, then lowest pair x < y) of the
    five-vertex configuration above, or None. Graphs avoiding it are
    exactly the matrogenic graphs."""
    n, adj = g.n, g.adj
    for u in range(n):
        au = adj[u]
        if au.bit_count() < 2:
            continue
        for v in range(n):
            if v == u or au >> v & 1:
                continue
            for w in iter_bits(adj[v]):
                if w == u:
                    continue
                pool = au & ~adj[w] & ~(1 << v) & ~(1 << w)
                if pool.bit_count() >= 2:
                    bits = iter_bits(pool)
                    x = next(bits)
                    y = next(bits)
                    return ConfigWitness(v, w, u, x, y)
    return None


def is_matrogenic_config_free(g: Graph) -> bool:
    return find_matrogenic_config(g) is None


_THRESHOLD_GROUPS = _by_size(
    [disjoint_union(complete(2), complete(2)), cycle(4), path(4)]  # 2K2, C4, P4
)


def is_threshold(g: Graph) -> bool:
    """True iff g has no induced 2K2, C4, or P4 (one pass over the
    4-subsets)."""
    return _first_induced(g, _THRESHOLD_GROUPS) is None
