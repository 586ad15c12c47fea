"""Theorem-check harness at small orders (the full-scale runs live in the
acceptance suite)."""

import itertools
import json

import pytest

from hhresidue import harness, recognition
from hhresidue.graph6 import parse_graph6
from hhresidue.graphs import iter_bits
from hhresidue.cli import main
from hhresidue.harness import (
    THEOREM_CHECKS,
    GraphRecord,
    on_c4_or_p5_center,
    records_up_to,
    verify,
)
from hhresidue.recognition import FORBIDDEN_SUBGRAPHS, definitional_violation

from oracles import induced_subgraph, is_isomorphic
from strategies import complete_bipartite, cycle, graphs_up_to, path


def test_minimal_forbidden_up_to_5():
    found = [r.graph for r in records_up_to(5) if r.minimal_forbidden]
    assert len(found) == 5
    five_vertex = [g for g in FORBIDDEN_SUBGRAPHS.values() if g.n == 5]
    for fg in five_vertex:
        assert sum(1 for g in found if is_isomorphic(g, fg)) == 1


def test_verify_minimal_forbidden_small():
    assert verify("minimal-forbidden", 6)["passed"]


@pytest.fixture
def catalog_swap(monkeypatch):
    """Run minimal-forbidden at n <= 6 with a given catalog in place of the
    nine: fresh records and a fresh copy table for each call, and the real
    table rebuilt on next use after the test."""

    def run(catalog):
        recognition._copy_tables.cache_clear()
        monkeypatch.setattr(recognition, "FORBIDDEN_SUBGRAPHS", catalog)
        monkeypatch.setattr(harness, "FORBIDDEN_SUBGRAPHS", catalog)
        monkeypatch.setattr(harness, "_records", {})
        return verify("minimal-forbidden", 6)

    yield run
    recognition._copy_tables.cache_clear()


@pytest.mark.parametrize(
    "change, expected",
    [
        (lambda c: c.pop("stool"), [("E{CO", "minimal forbidden graph not in the catalog")]),
        (
            lambda c: c.update({"co-domino": path(6)}),
            [
                ("E{SW", "minimal forbidden graph not in the catalog"),
                ("EhCG", "catalog graph co-domino not found by the sweep"),
                ("EhCG", "catalog graph co-domino minus vertex 5 still fails the oracle"),
            ],
        ),
        # the copy table names each labelled copy after the first entry it copies
        (
            lambda c: c.update({"P5 again": c["P5"]}),
            [("DhC", "catalog graph P5 again not found by the sweep")],
        ),
        # a class is named only by a witness on all its vertices, so the
        # in-class claw hides the three members that contain it
        (
            lambda c: c.update({"claw": complete_bipartite(1, 3)}),
            [
                ("Dr_", "minimal forbidden graph not in the catalog"),
                ("DrW", "minimal forbidden graph not in the catalog"),
                ("E{CO", "minimal forbidden graph not in the catalog"),
                ("Dl_", "catalog graph 4-pan not found by the sweep"),
                ("D]o", "catalog graph K_{2,3} not found by the sweep"),
                ("E{CO", "catalog graph stool not found by the sweep"),
                ("Cs", "catalog graph claw not found by the sweep"),
                ("Cs", "catalog graph claw passes the definitional oracle"),
            ],
        ),
    ],
    ids=["stool-dropped", "co-domino-as-P6", "P5-twice", "claw-added"],
)
def test_minimal_forbidden_fails_on_a_wrong_catalog(catalog_swap, change, expected):
    catalog = dict(FORBIDDEN_SUBGRAPHS)
    change(catalog)
    report = catalog_swap(catalog)
    assert [(v["graph6"], v["message"]) for v in report["violations"]] == expected
    # P5-twice fails only after the sweep, in the catalog part
    assert report["passed"] is False


# (check, graph6, overwritten record facts, the check's messages): each
# sweep check made to fail on one record whose cached facts are wrong;
# Bg is the path on 3 vertices, DhC the path on 5
FAILING_RECORDS = [
    (
        "forb-equivalence",
        "DhC",
        {"violation": None},
        ["definitional=True forbidden-scan=False (witness=P5(0, 1, 2, 3, 4))"],
    ),
    ("forb-equivalence", "Bg", {"violation": 7}, ["definitional=False forbidden-scan=True (no witness)"]),
    ("residue-bounds", "Bg", {"alpha": 0}, ["residue 2 exceeds alpha 0", "Maxine size 2 exceeds alpha 0"]),
    ("residue-bounds", "Bg", {"maxine_sizes": (1, 2)}, ["Maxine size 1 below residue 2"]),
    (
        "r-equals-alpha-S",
        "Bg",
        {"alpha": 3, "maxine_sizes": (1, 2)},
        ["in-class graph has residue 2 != alpha 3", "Maxine sizes (1, 2) differ from residue 2"],
    ),
    (
        "lemma-c4-p5",
        "Bg",
        {"alpha": 3},
        ["vertex 1 is in every maximum independent set but on no induced C4 and not a P5 center"],
    ),
    ("class-chain", "Bg", {"config_free": False}, ["threshold graph contains the configuration"]),
    ("class-chain", "DhC", {"config_free": True}, ["configuration-free graph is outside the class"]),
]


FAILING_IDS = [f"{cid}-{g6}-{'+'.join(facts)}" for cid, g6, facts, _ in FAILING_RECORDS]


def failing_record(g6, facts):
    rec = GraphRecord(parse_graph6(g6))
    rec.__dict__.update(facts)  # where a record keeps a computed fact
    return rec


@pytest.mark.parametrize("theorem_id, g6, facts, messages", FAILING_RECORDS, ids=FAILING_IDS)
def test_each_check_reports_a_wrong_fact(theorem_id, g6, facts, messages):
    predicate = THEOREM_CHECKS[theorem_id][0].keywords["predicate"]
    assert predicate(failing_record(g6, {})) == []
    assert predicate(failing_record(g6, facts)) == messages


@pytest.mark.parametrize("theorem_id, g6, facts, messages", FAILING_RECORDS, ids=FAILING_IDS)
def test_verify_exits_1_on_a_violation(monkeypatch, capsys, theorem_id, g6, facts, messages):
    """With the failing record as the check's only record, verify prints
    the report that the check returns and exits 1."""
    rec = failing_record(g6, facts)
    n = rec.graph.n
    monkeypatch.setattr(harness, "_records", {k: [rec] if k == n else [] for k in range(1, n + 1)})
    assert main(["verify", theorem_id, "--max-n", str(n)]) == 1
    printed = json.loads(capsys.readouterr().out)
    assert printed == {
        "theorem_id": theorem_id,
        "n_max": n,
        "graphs_checked": 1,
        "passed": False,
        "violations": [{"graph6": g6, "message": m} for m in messages],
    }
    assert verify(theorem_id, n) == printed


def test_all_checks_pass_at_n5():
    for theorem_id, (check, _default) in THEOREM_CHECKS.items():
        report = check(5)
        assert report["passed"], (theorem_id, report["violations"][:3])
        assert report["theorem_id"] == theorem_id
        assert report["n_max"] == 5


# the kernel behind each computed GraphRecord fact that the six checks read
FACT_KERNELS = (
    "strong_hh_witness",
    "residue",
    "independence_number",
    "maxine_all_branches",
    "definitional_violation",
    "is_threshold",
    "is_matrogenic_config_free",
)


def test_checks_share_one_record_per_class(monkeypatch):
    """All six checks read one cached record per class: from an empty
    record cache, every fact kernel runs once per class of order <= 6 (208
    classes), and a second run of every check adds no call. The catalog
    part of minimal-forbidden asks the definitional oracle about the nine
    catalog graphs on fresh records, so those calls are left out."""
    catalog = {id(fg) for fg in FORBIDDEN_SUBGRAPHS.values()}
    calls = {name: [] for name in FACT_KERNELS}

    def counting(name):
        real = getattr(harness, name)

        def kernel(arg):
            if id(arg) not in catalog:
                calls[name].append(arg)
            return real(arg)

        return kernel

    monkeypatch.setattr(harness, "_records", {})
    for name in FACT_KERNELS:
        monkeypatch.setattr(harness, name, counting(name))
    for theorem_id in THEOREM_CHECKS:
        assert verify(theorem_id, 6)["passed"], theorem_id
    assert {name: len(args) for name, args in calls.items()} == dict.fromkeys(FACT_KERNELS, 208)
    graphs = [rec.graph for rec in records_up_to(6)]
    for name, args in calls.items():
        if name != "residue":  # residue reads the record's degree sequence
            assert sorted(map(id, args)) == sorted(map(id, graphs)), name
    for theorem_id in THEOREM_CHECKS:
        verify(theorem_id, 6)
    assert {name: len(args) for name, args in calls.items()} == dict.fromkeys(FACT_KERNELS, 208)


def test_lemma_asks_alpha_only_of_possible_violators(monkeypatch):
    """The lemma's predicate asks alpha(G - v) last, only of a maximum-degree
    vertex on no induced C4 and centring no induced P5: 1,149 times over
    the 1,245 classes of order <= 7 with an edge."""
    calls = []
    real = harness.independence_number_without
    monkeypatch.setattr(harness, "_records", {})
    monkeypatch.setattr(harness, "independence_number_without", lambda g, v: calls.append(v) or real(g, v))
    report = verify("lemma-c4-p5", 7)
    assert report["passed"] and report["graphs_checked"] == 1245
    assert len(calls) == 1149


def test_inherited_facts_equal_direct():
    """Every class of order <= 7: the record's violation, read with the
    answers of smaller graphs kept, equals the answer from a cold memo."""
    recs = records_up_to(7)
    violations = [rec.violation for rec in recs]
    for rec, first in zip(recs, violations):
        recognition._first_violation.cache_clear()
        assert definitional_violation(rec.graph) == first, rec.graph6


def test_children_sweep_only_masks_with_the_new_vertex(monkeypatch):
    """The definitional memo. From a cold memo and an empty record cache,
    the six checks at n <= 6 keep 227 answers (the 208 classes, the
    order-0 graph, and the seven catalog graphs that are not class
    representatives with eleven of their prefixes) and make 216 hits; a
    second run adds hits but no miss. With its prefix's answer kept, each
    class of order 2..6 either sweeps nothing (its prefix fails) or reads
    one mask table, that of its own order, whose masks all hold the new
    vertex n-1."""
    memo = recognition._first_violation
    memo.cache_clear()
    monkeypatch.setattr(harness, "_records", {})
    for theorem_id in THEOREM_CHECKS:
        assert verify(theorem_id, 6)["passed"], theorem_id
    info = memo.cache_info()
    assert (info.currsize, info.misses, info.hits) == (227, 227, 216)
    for theorem_id in THEOREM_CHECKS:
        verify(theorem_id, 6)
    info = memo.cache_info()
    assert (info.currsize, info.misses, info.hits) == (227, 227, 225)

    memo.cache_clear()
    swept = []
    real = recognition._top_masks
    monkeypatch.setattr(recognition, "_top_masks", lambda n: swept.append(n) or real(n))
    no_sweep = from_top = 0
    for rec in records_up_to(6)[1:]:
        g = rec.graph
        prefix_first = definitional_violation(induced_subgraph(g, range(g.n - 1)))
        swept.clear()
        assert definitional_violation(g) == rec.violation, rec.graph6
        if prefix_first is not None:
            assert swept == [], rec.graph6
            no_sweep += 1
        else:
            assert swept == [g.n], rec.graph6
            from_top += 1
    assert (no_sweep, from_top) == (30, 177)


def test_verify_uses_default_order():
    assert verify("minimal-forbidden")["n_max"] == 6


def test_reports_are_deterministic():
    a = verify("class-chain", 4)
    b = verify("class-chain", 4)
    assert a == b


def test_counts_examples():
    assert verify("forb-equivalence", 4)["graphs_checked"] == 18
    assert verify("residue-bounds", 5)["graphs_checked"] == 52


def test_report_dict_schema():
    report = verify("forb-equivalence", 3)
    payload = json.loads(json.dumps(report))
    assert list(payload) == ["theorem_id", "n_max", "graphs_checked", "passed", "violations"]
    assert payload == {
        "theorem_id": "forb-equivalence",
        "n_max": 3,
        "graphs_checked": 7,
        "passed": True,
        "violations": [],
    }


def c4_or_p5_center_by_subsets(g, v):
    """Brute force: some 4-subset through v induces a 4-cycle, or some
    5-subset through v induces a 5-path with v at its center, the one
    vertex of P5 whose neighbors both have degree 2 (in C4 every vertex
    has degree 2). A subset is built and tested for isomorphism only when
    it has the shapes' four edges and v and its neighbors in it have
    degree 2."""
    adj = g.adj
    others = [u for u in range(g.n) if u != v]
    for k, shape in ((3, cycle(4)), (4, path(5))):
        for rest in itertools.combinations(others, k):
            verts = (v, *rest)
            mask = sum(1 << u for u in verts)
            deg = {u: (adj[u] & mask).bit_count() for u in verts}
            if (
                sum(deg.values()) == 8
                and all(deg[u] == 2 for u in (v, *iter_bits(adj[v] & mask)))
                and is_isomorphic(induced_subgraph(g, verts), shape)
            ):
                return True
    return False


def test_c4_membership_helper():
    """Every vertex of C4 lies on an induced C4 and none of P4 does; the
    pan's pendant lies on none (and, of degree 1, is no P5 center)."""
    examples = [
        (cycle(4), {0, 1, 2, 3}),
        (path(4), set()),
        (FORBIDDEN_SUBGRAPHS["4-pan"], {0, 1, 2, 3}),  # vertices 0..3 on the cycle, 4 pendant
    ]
    for g, expected in examples:
        assert {v for v in range(g.n) if on_c4_or_p5_center(g, v)} == expected


def test_p5_center_helper():
    """Only the middle vertex of P5 is a P5 center; C5 has no induced C4
    or P5."""
    assert {v for v in range(5) if on_c4_or_p5_center(path(5), v)} == {2}
    assert not any(on_c4_or_p5_center(cycle(5), v) for v in range(5))


def test_c4_or_p5_center_matches_subsets():
    """Every vertex of every class of order <= 7 against the brute force."""
    for g in graphs_up_to(7):
        for v in range(g.n):
            assert on_c4_or_p5_center(g, v) == c4_or_p5_center_by_subsets(g, v), (g.edges(), v)
