"""Immutable simple graphs with bitmask adjacency, built for exact
small-graph combinatorics.

A graph is its order and one int bitmask per vertex, its neighborhood;
degrees, induced-subgraph degrees, independence checks, and subset scans
reduce to popcounts. :func:`iter_bits` turns a vertex-set mask into an
ascending tuple of vertices; for masks below 2^27 (every vertex set of a
graph of order <= 27) it joins the entries of three 512-entry tables built
at import, one per nine-bit chunk.

Every exact computation in the package is exponential in the order (the
class scans are a steep polynomial), so each stops at a bound held in the
one table :data:`SCALE_MAX_N`. The kernels enforce theirs with
:func:`check_order`; ``analyze`` reports "skipped: scale" beyond its own.
"""

from __future__ import annotations

from collections.abc import Iterable

# Largest supported order of each exact computation.
SCALE_MAX_N: dict[str, int] = {
    "alpha": 24,  # independence: alpha and alpha(G - v) by plain branching
    "subset sweep": 20,  # independence.independence_number_bitmask (reference)
    "maxine branching": 9,  # independence.maxine_all_branches
    "definitional": 12,  # recognition.definitional_violation
    "enumeration": 8,  # enumeration.enumerate_graphs, hence verify --max-n
    "class scans": 20,  # analyze: in_s, witness, threshold, config-free
}


def check_order(what: str, n: int, lo: int = 0) -> None:
    """Raise ValueError unless lo <= n <= SCALE_MAX_N[what]."""
    hi = SCALE_MAX_N[what]
    if not lo <= n <= hi:
        raise ValueError(f"{what}: order {n} outside supported range {lo}..{hi}")


def _bits_table(lo: int) -> list[tuple[int, ...]]:
    """Entry m is iter_bits(m << lo), for every m < 2**9. Built by
    doubling: the entries whose top bit is b are the entries before
    them, each with b appended."""
    table: list[tuple[int, ...]] = [()]
    for b in range(lo, lo + 9):
        table += [bits + (b,) for bits in table]
    return table


# the bits of a mask's nine-bit chunks at offsets 0, 9 and 18
_BITS0, _BITS9, _BITS18 = _bits_table(0), _bits_table(9), _bits_table(18)


def iter_bits(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of mask, in increasing order, as a
    tuple. A mask below 2**27 (every vertex set of a graph of order <= 27)
    is read from the tables, one lookup per nine-bit chunk up to its top
    bit; a larger one is decoded bit by bit."""
    if mask < 512:
        return _BITS0[mask]
    if mask < 1 << 18:
        return _BITS0[mask & 511] + _BITS9[mask >> 9]
    if mask < 1 << 27:
        return _BITS0[mask & 511] + _BITS9[mask >> 9 & 511] + _BITS18[mask >> 18]
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)


class Graph:
    """A simple undirected graph on vertices 0..n-1.

    Instances are immutable and hashable. Equality is labeled equality
    (same vertex count and same edge set), not isomorphism.

    Attributes:
        n: number of vertices.
        adj: tuple of neighborhood bitmasks, one per vertex.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(masks))

    @classmethod
    def _from_adj(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        # Internal fast path: adj must already be symmetric and loop-free.
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __delattr__(self, name):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph({self.n}, {self.edges()})"

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in iter_bits(self.adj[u]) if u < v]

    @property
    def degrees(self) -> tuple[int, ...]:
        """Vertex degrees, indexed by vertex, counted from adj on each
        access: bind them once before a loop that reads them."""
        return tuple(m.bit_count() for m in self.adj)

    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees sorted from largest to smallest."""
        return tuple(sorted(self.degrees, reverse=True))

