"""Metric declarations: name, unit, better direction and, for per-layer
metrics, which end-to-end metric on which workload they should move.

BENCHMARK.json lists the same names; ``run.py`` refuses to print a result
whose metric names differ from it.
"""

from __future__ import annotations

CHECK_IDS = (
    "forb-equivalence",
    "minimal-forbidden",
    "residue-bounds",
    "r-equals-alpha-S",
    "lemma-c4-p5",
    "class-chain",
)

LAYERS = ("enumeration", "graphs", "harness", "recognition", "independence", "degseq", "graph6", "cli")

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pass_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

# The name each workload's headline metric goes by; the shared names above
# exist because every workload must report every end-to-end metric.
E2E_ALIASES = {
    "certify": {"pass_s": "certify_s"},
    "analyze": {"ops_per_s": "analyze_records_per_s"},
    "sequences": {"ops_per_s": "sequences_per_s"},
}

_CERT = "certify_s, peak_rss_mb on certify"
_AN = "analyze_records_per_s on analyze"
_SEQ = "sequences_per_s on sequences"

# (name, unit, better, moves)
PER_LAYER = (
    ("enumeration.order6_s", "s", "lower", _CERT + "; none on analyze/sequences"),
    ("enumeration.order7_s", "s", "lower", _CERT + "; none on analyze/sequences"),
    ("enumeration.canonical_form_calls", "count", "lower", _CERT),
    ("enumeration.is_isomorphic_calls", "count", "lower", _CERT),
    ("graphs.canonical_form.s", "s", "lower", "certify_s on certify (via enumeration)"),
    ("graphs.is_isomorphic.s", "s", "lower", "certify_s on certify; " + _AN + " (via recognition)"),
    ("graphs.induced_subgraph.calls", "count", "lower", "certify_s on certify; " + _AN),
    *(
        (f"harness.{cid}.s", "s", "lower", "certify_s on certify (warm enumeration cache)")
        for cid in CHECK_IDS
    ),
    ("harness.is_isomorphic_calls", "count", "lower", "certify_s on certify"),
    ("recognition.definitional.s", "s", "lower", "certify_s on certify"),
    ("recognition.definitional.calls", "count", "lower", "certify_s on certify"),
    ("recognition.strong_hh_witness.s", "s", "lower", _AN + "; certify_s a little"),
    ("recognition.strong_hh_witness.calls", "count", "lower", _AN + "; certify_s a little"),
    ("recognition.is_threshold.s", "s", "lower", _AN + "; certify_s a little"),
    ("recognition.find_matrogenic_config.s", "s", "lower", _AN + "; certify_s a little"),
    ("recognition.is_isomorphic_calls", "count", "lower", _AN + "; certify_s a little"),
    ("recognition.iso_hit_frac", "ratio", "higher", _AN + " (witnesses / isomorphism tests)"),
    ("recognition.in_class_frac", "ratio", "higher", "input composition of analyze; no speed meaning"),
    ("independence.independence_number.s", "s", "lower", _AN + "; certify_s on certify"),
    ("independence.maxine_all_branches.s", "s", "lower", _AN + "; certify_s on certify"),
    ("independence.maximum_independent_sets.s", "s", "lower", "certify_s on certify"),
    ("independence.maxine_branch_count", "count", "lower", _AN + "; certify_s on certify"),
    ("degseq.residue.s", "s", "lower", _SEQ + "; none on analyze"),
    ("degseq.residue.calls", "count", "lower", _SEQ),
    ("degseq.is_graphical.s", "s", "lower", _SEQ),
    ("degseq.terms", "count", "lower", _SEQ + " (input terms handed to degseq)"),
    ("graph6.parse_graph6.s", "s", "lower", _AN),
    ("graph6.emit_graph6.s", "s", "lower", _AN + "; certify_s on certify"),
    ("cli.analyze_graph.p50_ms", "ms", "lower", _AN),
    ("cli.analyze_graph.p99_ms", "ms", "lower", _AN),
    ("cli.analyze_graph.samples", "count", "higher", _AN + " (sample count of p50/p99)"),
    *((f"{layer}.self.s", "s", "lower", "layer self time; see the rows above") for layer in LAYERS),
    *((f"{layer}.incl.s", "s", "lower", "layer inclusive time; see the rows above") for layer in LAYERS),
    ("trace.bench.self.s", "s", "lower", "time outside every layer span"),
    ("trace.wall.s", "s", "lower", "fastest traced pass (sum of all self times)"),
    ("trace.untraced.s", "s", "lower", "fastest untraced pass"),
    ("trace.overhead_frac", "ratio", "lower", "traced / untraced - 1"),
)
