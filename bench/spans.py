"""Span tracing from outside the package, and the per-layer metrics derived
from the spans.

A wrapper is installed where the calling module binds a name (for example
``hhresidue.enumeration.canonical_form``), so each span knows both the
layer it runs in (the callee's module) and the layer that made the call.
Spans are kept in memory as flat lists and written out once at the end of
the traced pass; ``layer_metrics`` turns them into the per-layer table.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import importlib
import time

from metrics import CHECK_IDS, LAYERS, PER_LAYER

# Cross-layer call sites: (module binding the name, names it calls).
# Names a module no longer binds are skipped, so their counts read 0.
SITES = (
    ("hhresidue.enumeration", ("enumerate_graphs", "canonical_form", "is_isomorphic")),
    (
        "hhresidue.harness",
        (
            "residue",
            "emit_graph6",
            "induced_subgraph",
            "is_isomorphic",
            "independence_number",
            "maximum_independent_sets",
            "maxine_all_branches",
            "is_matrogenic_config_free",
            "is_strong_havel_hakimi_definitional",
            "is_threshold",
            "strong_hh_witness",
        ),
    ),
    ("hhresidue.recognition", ("induced_subgraph", "is_isomorphic")),
    (
        "hhresidue.cli",
        (
            "analyze_graph",
            "hh_reduce",
            "parse_graph6",
            "emit_graph6",
            "independence_number",
            "maxine_all_branches",
            "maxine_run",
            "find_matrogenic_config",
            "is_threshold",
            "strong_hh_witness",
        ),
    ),
)


def _terms(args, result):
    return len(args[0]) if args and hasattr(args[0], "__len__") else 0


# What a span records beyond its timing, by function name.
INFO = {
    "enumerate_graphs": lambda args, result: args[0] if args else None,
    "is_isomorphic": lambda args, result: bool(result),
    "strong_hh_witness": lambda args, result: result is None,
    "maxine_all_branches": lambda args, result: getattr(result, "branch_count", 0),
    "residue": _terms,
    "is_graphical": _terms,
    "hh_reduce": _terms,
}

# span fields
NAME, CALLER, PARENT, OP, T0, T1, INFO_ = range(7)


class Tracer:
    """Collects spans of one traced pass. ``op_starts`` names the spans
    that begin a new operation (a check, a record, a sequence)."""

    def __init__(self, op_starts=()):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = 0
        self._op_starts = frozenset(op_starts)
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, caller: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = INFO.get(name.rsplit(".", 1)[-1])
        starts_op = name in self._op_starts

        def traced(*args, **kwargs):
            if starts_op:
                self._op += 1
            rec = [name, caller, stack[-1] if stack else -1, self._op, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[T0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[T1] = clock()
                stack.pop()
            if info is not None:
                rec[INFO_] = info(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every cross-layer call site, and each registered check."""
        for modname, names in SITES:
            mod = importlib.import_module(modname)
            caller = modname.rsplit(".", 1)[-1]
            for attr in names:
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                layer = fn.__module__.rsplit(".", 1)[-1]
                self._restore.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(fn, f"{layer}.{attr}", caller))
        checks = importlib.import_module("hhresidue.harness").THEOREM_CHECKS
        for cid, (check, default_n) in list(checks.items()):
            self._restore.append((checks, cid, (check, default_n)))
            checks[cid] = (self.wrap(check, f"harness.{cid}", "cli"), default_n)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._restore.clear()


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 1))  # nearest rank
    return sorted_values[int(rank) - 1]


def layer_metrics(spans: list[list], untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass. ``spans[0]`` is the root span
    around the whole pass; the layer self times and the root's own self
    time add up to its duration."""
    n = len(spans)
    dur = [s[T1] - s[T0] for s in spans]
    child = [0.0] * n
    for i in range(1, n):
        child[spans[i][PARENT]] += dur[i]
    layer = [s[NAME].split(".", 1)[0] for s in spans]

    m = {name: 0 if unit == "count" else 0.0 for name, unit, *_ in PER_LAYER}
    for i in range(n):
        lay = layer[i]
        if lay in LAYERS:
            m[f"{lay}.self.s"] += dur[i] - child[i]
            p = spans[i][PARENT]
            while p >= 0 and layer[p] != lay:
                p = spans[p][PARENT]
            if p < 0:
                m[f"{lay}.incl.s"] += dur[i]
    wall = dur[0]
    m["trace.wall.s"] = wall
    m["trace.bench.self.s"] = wall - child[0]
    m["trace.untraced.s"] = untraced_s
    m["trace.overhead_frac"] = wall / untraced_s - 1 if untraced_s > 0 else 0.0

    def total(name, caller=None):
        return sum(
            (dur[i] for i, s in enumerate(spans) if s[NAME] == name and caller in (None, s[CALLER])),
            0.0,
        )

    def calls(name, caller=None):
        return sum(1 for s in spans if s[NAME] == name and caller in (None, s[CALLER]))

    # An order's time includes its canonical forms but not the recursive
    # call that builds the order below.
    enum = "enumeration.enumerate_graphs"
    below = [0.0] * n
    for i in range(1, n):
        if spans[i][NAME] == enum:
            below[spans[i][PARENT]] += dur[i]
    for k in (6, 7):
        m[f"enumeration.order{k}_s"] = sum(
            dur[i] - below[i] for i, s in enumerate(spans) if s[NAME] == enum and s[INFO_] == k
        )
    m["enumeration.canonical_form_calls"] = calls("graphs.canonical_form", "enumeration")
    m["enumeration.is_isomorphic_calls"] = calls("graphs.is_isomorphic", "enumeration")
    m["graphs.canonical_form.s"] = total("graphs.canonical_form")
    m["graphs.is_isomorphic.s"] = total("graphs.is_isomorphic")
    m["graphs.induced_subgraph.calls"] = calls("graphs.induced_subgraph")
    for cid in CHECK_IDS:
        m[f"harness.{cid}.s"] = total(f"harness.{cid}")
    m["harness.is_isomorphic_calls"] = calls("graphs.is_isomorphic", "harness")

    definitional = "recognition.is_strong_havel_hakimi_definitional"
    m["recognition.definitional.s"] = total(definitional)
    m["recognition.definitional.calls"] = calls(definitional)
    witness = [s for s in spans if s[NAME] == "recognition.strong_hh_witness"]
    m["recognition.strong_hh_witness.s"] = total("recognition.strong_hh_witness")
    m["recognition.strong_hh_witness.calls"] = len(witness)
    m["recognition.in_class_frac"] = (
        sum(1 for s in witness if s[INFO_]) / len(witness) if witness else 0.0
    )
    m["recognition.is_threshold.s"] = total("recognition.is_threshold")
    m["recognition.find_matrogenic_config.s"] = total("recognition.find_matrogenic_config") + total(
        "recognition.is_matrogenic_config_free"
    )
    iso = [s for s in spans if s[NAME] == "graphs.is_isomorphic" and s[CALLER] == "recognition"]
    m["recognition.is_isomorphic_calls"] = len(iso)
    m["recognition.iso_hit_frac"] = sum(1 for s in iso if s[INFO_]) / len(iso) if iso else 0.0

    m["independence.independence_number.s"] = total("independence.independence_number")
    m["independence.maxine_all_branches.s"] = total("independence.maxine_all_branches")
    m["independence.maximum_independent_sets.s"] = total("independence.maximum_independent_sets")
    m["independence.maxine_branch_count"] = sum(
        s[INFO_] for s in spans if s[NAME] == "independence.maxine_all_branches"
    )

    m["degseq.residue.s"] = total("degseq.residue")
    m["degseq.residue.calls"] = calls("degseq.residue")
    m["degseq.is_graphical.s"] = total("degseq.is_graphical")
    m["degseq.terms"] = sum(s[INFO_] for s in spans if s[NAME].startswith("degseq."))

    m["graph6.parse_graph6.s"] = total("graph6.parse_graph6")
    m["graph6.emit_graph6.s"] = total("graph6.emit_graph6")

    per_record = sorted(dur[i] * 1000 for i, s in enumerate(spans) if s[NAME] == "cli.analyze_graph")
    m["cli.analyze_graph.p50_ms"] = _quantile(per_record, 0.5)
    m["cli.analyze_graph.p99_ms"] = _quantile(per_record, 0.99)
    m["cli.analyze_graph.samples"] = len(per_record)
    return m
