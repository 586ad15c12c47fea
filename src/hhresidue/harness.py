"""Enumeration-based checks of the structural facts the package is built
on, over one shared per-graph record.

A :class:`GraphRecord` holds the facts about one graph that the checks and
``analyze`` read: graph6, degree sequence, residue, alpha, the Maxine
sizes, the forbidden-subgraph witness, the first definitional violation,
and threshold and configuration-free membership. Each is computed on
first access and kept in the record's __dict__, with no lock (see
GraphRecord). Records are cached per order, like the
enumeration itself, so a run of several checks computes each fact once
per isomorphism class.

The first definitional violation is the one fact that reuses answers to
smaller graphs, by the prefix rule of
:func:`hhresidue.recognition.definitional_violation`; it never consults
the forbidden list, so "forb-equivalence" compares two independent routes.

Each check is a predicate over the records of every class of order
1..n_max (any n_max within the enumeration's scale bound). Its report is
the plain dict that ``verify`` prints as JSON; it lists violations as
graph6 strings with messages, so a failure is reproducible from the
report alone. The facts checked:

- the definitional strong Havel-Hakimi oracle agrees with the
  forbidden-subgraph scan ("forb-equivalence");
- the minimal forbidden induced subgraphs are exactly the nine catalog
  graphs ("minimal-forbidden"). A class is named by its forbidden-scan
  witness when that spans all its vertices, so no isomorphism test runs;
  the scan names each labelled copy after the first catalog entry it
  copies, so an entry repeating an earlier one is never found;
- residue <= alpha, and residue <= M <= alpha for every achievable Maxine
  size ("residue-bounds");
- on the class itself, residue = alpha and every Maxine branch returns the
  residue ("r-equals-alpha-S");
- a maximum-degree vertex lying in all maximum independent sets sits on an
  induced 4-cycle or is the center of an induced 5-path ("lemma-c4-p5");
- threshold implies matrogenic-configuration-free implies in-class
  ("class-chain").
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from .degseq import residue
from .enumeration import enumerate_graphs
from .graph6 import emit_graph6
from .graphs import Graph, iter_bits
from .independence import independence_number, independence_number_without, maxine_all_branches
from .recognition import (
    FORBIDDEN_SUBGRAPHS,
    definitional_violation,
    is_matrogenic_config_free,
    is_threshold,
    strong_hh_witness,
)


class _fact:
    """A GraphRecord field whose method runs on the first read, which
    stores the value in the record's __dict__ under the method's name. A
    non-data descriptor is consulted only when the instance __dict__
    misses, so later reads find the value there, and a value put there
    first (a planted fact in a test) is read instead of computed. Read on
    the class, it returns itself."""

    def __init__(self, compute: Callable[[GraphRecord], Any]):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, rec: GraphRecord | None, owner: type | None = None) -> Any:
        if rec is None:
            return self
        value = rec.__dict__[self.name] = self.compute(rec)
        return value


class GraphRecord:
    """The per-graph facts, each computed on first access and then kept.
    Callers read only the fields within the scale bounds of their
    inputs. The fields are _fact descriptors, not the functools cached
    property: on Python 3.10 and 3.11 that takes a lock shared by every
    record on each first read, and a certify pass makes about ten
    thousand first reads."""

    def __init__(self, graph: Graph):
        self.graph = graph

    @_fact
    def graph6(self) -> str:
        return emit_graph6(self.graph)

    @_fact
    def degree_sequence(self) -> tuple[int, ...]:
        return self.graph.degree_sequence()

    @_fact
    def residue(self) -> int:
        return residue(self.degree_sequence)

    @_fact
    def alpha(self) -> int:
        return independence_number(self.graph)

    @_fact
    def maxine_sizes(self) -> tuple[int, ...]:
        return maxine_all_branches(self.graph)

    @_fact
    def witness(self) -> tuple[str, tuple[int, ...]] | None:
        return strong_hh_witness(self.graph)

    @_fact
    def violation(self) -> int | None:
        """First vertex subset (bitmask) failing the definitional oracle."""
        return definitional_violation(self.graph)

    @_fact
    def threshold(self) -> bool:
        return is_threshold(self.graph)

    @_fact
    def config_free(self) -> bool:
        return is_matrogenic_config_free(self.graph)

    @property
    def minimal_forbidden(self) -> bool:
        """Outside the class with every one-vertex deletion inside, by the
        definitional oracle: the first violation is the whole vertex set,
        since every proper subset has a smaller mask and lies inside some
        one-vertex deletion."""
        return self.violation == (1 << self.graph.n) - 1


_records: dict[int, list[GraphRecord]] = {}


def records_up_to(n_max: int) -> list[GraphRecord]:
    """Records of every class of order 1..n_max, smaller orders first, in
    enumeration order; built once per order."""
    enumerate_graphs(n_max)  # checks n_max and fills the cache
    for n in range(1, n_max + 1):
        if n not in _records:
            _records[n] = [GraphRecord(g) for g in enumerate_graphs(n)]
    return [rec for n in range(1, n_max + 1) for rec in _records[n]]


def _sweep(
    check_id: str, n_max: int, predicate: Callable[[GraphRecord], list[str] | None]
) -> dict[str, Any]:
    """Apply predicate to the record of every class of order <= n_max and
    return the report dict that verify prints. The predicate returns the
    graph's violation messages, or None to leave the graph out of the
    count."""
    violations = []
    checked = 0
    for rec in records_up_to(n_max):
        messages = predicate(rec)
        if messages is None:
            continue
        checked += 1
        violations += [{"graph6": rec.graph6, "message": m} for m in messages]
    return {
        "theorem_id": check_id,
        "n_max": n_max,
        "graphs_checked": checked,
        "passed": not violations,
        "violations": violations,
    }


def _forb_equivalence(rec: GraphRecord) -> list[str]:
    """Definitional oracle == forbidden-subgraph scan."""
    by_definition = rec.violation is None
    w = rec.witness
    if by_definition == (w is None):
        return []
    detail = f"witness={w[0]}{w[1]}" if w else "no witness"
    return [f"definitional={by_definition} forbidden-scan={w is None} ({detail})"]


def _verify_minimal_forbidden(n_max: int) -> dict[str, Any]:
    """The minimal-forbidden sweep returns exactly the nine catalog graphs
    (also certifying the catalog's fixed edge lists), and each catalog
    member is itself minimal."""
    matched: set[str] = set()

    def in_catalog(rec: GraphRecord) -> list[str]:
        if not rec.minimal_forbidden:
            return []
        w = rec.witness
        if w is None or len(w[1]) < rec.graph.n:
            return ["minimal forbidden graph not in the catalog"]
        matched.add(w[0])
        return []

    report = _sweep("minimal-forbidden", n_max, in_catalog)
    violations = report["violations"]
    for name, fg in FORBIDDEN_SUBGRAPHS.items():
        rec = GraphRecord(fg)
        first = rec.violation
        faults = []
        if fg.n <= n_max and name not in matched:
            faults.append("not found by the sweep")
        if first is None:
            faults.append("passes the definitional oracle")
        elif not rec.minimal_forbidden:
            v = next(u for u in range(fg.n) if not first >> u & 1)
            faults.append(f"minus vertex {v} still fails the oracle")
        violations += [{"graph6": rec.graph6, "message": f"catalog graph {name} {f}"} for f in faults]
    report["passed"] = not violations
    return report


def _residue_bounds(rec: GraphRecord) -> list[str]:
    """residue <= alpha, and residue <= M <= alpha for every achievable
    Maxine size."""
    r, alpha, sizes = rec.residue, rec.alpha, rec.maxine_sizes
    messages = []
    if r > alpha:
        messages.append(f"residue {r} exceeds alpha {alpha}")
    if r > sizes[0]:
        messages.append(f"Maxine size {sizes[0]} below residue {r}")
    if sizes[-1] > alpha:
        messages.append(f"Maxine size {sizes[-1]} exceeds alpha {alpha}")
    return messages


def _r_equals_alpha(rec: GraphRecord) -> list[str]:
    """On an in-class graph: residue = alpha, and every Maxine branch
    returns exactly the residue."""
    if rec.witness is not None:
        return []
    r, alpha = rec.residue, rec.alpha
    messages = []
    if r != alpha:
        messages.append(f"in-class graph has residue {r} != alpha {alpha}")
    sizes = rec.maxine_sizes
    if sizes != (r,):
        messages.append(f"Maxine sizes {sizes} differ from residue {r}")
    return messages


def on_c4_or_p5_center(g: Graph, v: int) -> bool:
    """True iff v lies on an induced 4-cycle or is the center of an
    induced 5-path a-w-v-x-b. For each pair of non-adjacent neighbors w, x
    of v, let A and B be the neighbors of w and of x outside N[v]: a vertex
    in both closes an induced C4 through v, and when A and B are disjoint,
    a in A and b in B that are not adjacent end an induced P5 centered at
    v."""
    adj = g.adj
    outside = ~(adj[v] | 1 << v)
    nbrs = iter_bits(adj[v])
    for i, w in enumerate(nbrs):
        for x in nbrs[i + 1 :]:
            if adj[w] >> x & 1:
                continue
            a_set, b_set = adj[w] & outside, adj[x] & outside
            if a_set & b_set:
                return True
            for a in iter_bits(a_set):
                if b_set & ~adj[a]:
                    return True
    return False


def _lemma_c4_or_p5(rec: GraphRecord) -> list[str] | None:
    """With at least one edge: any maximum-degree vertex belonging to all
    maximum independent sets lies on an induced 4-cycle or is the center
    of an induced 5-path. Edgeless graphs are not counted. v lies in every
    maximum independent set exactly when alpha(G - v) < alpha(G), asked
    last, for the few vertices that could break the lemma."""
    g = rec.graph
    if not any(g.adj):
        return None
    deg = g.degrees
    dmax = max(deg)
    return [
        f"vertex {v} is in every maximum independent set but on no "
        f"induced C4 and not a P5 center"
        for v in range(g.n)
        if deg[v] == dmax
        and not on_c4_or_p5_center(g, v)
        and independence_number_without(g, v) < rec.alpha
    ]


def _class_chain(rec: GraphRecord) -> list[str]:
    """threshold => matrogenic-configuration-free => in-class."""
    messages = []
    if rec.threshold and not rec.config_free:
        messages.append("threshold graph contains the configuration")
    if rec.config_free and rec.witness is not None:
        messages.append("configuration-free graph is outside the class")
    return messages


# Registry for the command-line front end: id -> (check, default n_max).
THEOREM_CHECKS: dict[str, tuple[Callable[[int], dict[str, Any]], int]] = {
    "forb-equivalence": (partial(_sweep, "forb-equivalence", predicate=_forb_equivalence), 7),
    "minimal-forbidden": (_verify_minimal_forbidden, 6),
    "residue-bounds": (partial(_sweep, "residue-bounds", predicate=_residue_bounds), 7),
    "r-equals-alpha-S": (partial(_sweep, "r-equals-alpha-S", predicate=_r_equals_alpha), 7),
    "lemma-c4-p5": (partial(_sweep, "lemma-c4-p5", predicate=_lemma_c4_or_p5), 7),
    "class-chain": (partial(_sweep, "class-chain", predicate=_class_chain), 7),
}


def verify(check_id: str, n_max: int | None = None) -> dict[str, Any]:
    """Run the registered check check_id over every class of order
    1..n_max (default: the check's default order) and return its report
    dict (see _sweep). The registry is read at call time, so a wrapper
    installed in THEOREM_CHECKS sees the call."""
    check, default_n = THEOREM_CHECKS[check_id]
    return check(default_n if n_max is None else n_max)
