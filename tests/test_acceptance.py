"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest -s`` or ``-rA``).
"""

import itertools
import json
import random
import time

from hhresidue.cli import main
from hhresidue.degseq import is_graphical, residue
from hhresidue.enumeration import enumerate_graphs
from hhresidue.graph6 import emit_graph6, parse_graph6
from hhresidue.graphs import Graph
from hhresidue.harness import records_up_to, verify
from hhresidue.independence import (
    independence_number,
    independence_number_bitmask,
    maxine_all_branches,
)
from hhresidue.recognition import FORBIDDEN_SUBGRAPHS, is_strong_havel_hakimi_definitional

from oracles import (
    induced_subgraph,
    is_graphical_erdos_gallai,
    is_isomorphic,
    isomorphism_class_count_labeled,
)
from strategies import graphs_up_to, path


def report(label: str, ok: bool):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {label}"


def test_criterion_01_worked_example_fidelity(capsys):
    started = time.monotonic()
    code = main(["residue", "3,2,2,2,2,1"])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    ok = code == 0 and elapsed < 1.0 and out.splitlines() == [
        "d^0: (3, 2, 2, 2, 2, 1)",
        "d^1: (2, 1, 1, 1, 1)",
        "d^2: (1, 1, 0, 0)",
        "d^3: (0, 0, 0)",
        "residue: 3",
    ]
    report("1 worked example fidelity", ok)


def test_criterion_02_forb_equivalence_n7():
    rep = verify("forb-equivalence", 7)
    report("2 recognizer equivalence n<=7", rep["passed"] and rep["graphs_checked"] == 1252)


def test_criterion_03_minimal_forbidden_oracle():
    found = [r.graph for r in records_up_to(6) if r.minimal_forbidden]
    names = list(FORBIDDEN_SUBGRAPHS)
    ok = len(found) == 9
    # bijective match against the catalog encodings
    for name in names:
        ok = ok and sum(1 for g in found if is_isomorphic(g, FORBIDDEN_SUBGRAPHS[name])) == 1
    # each catalog member fails the oracle, every deletion passes
    for name in names:
        fg = FORBIDDEN_SUBGRAPHS[name]
        ok = ok and not is_strong_havel_hakimi_definitional(fg)
        for v in range(fg.n):
            rest = induced_subgraph(fg, [u for u in range(fg.n) if u != v])
            ok = ok and is_strong_havel_hakimi_definitional(rest)
    report("3 minimal forbidden oracle", ok)


def test_criterion_04_residue_bounds():
    rep = verify("residue-bounds", 7)
    report("4 residue bounds", rep["passed"])


def test_criterion_05_r_equals_alpha_on_class_n7():
    rep = verify("r-equals-alpha-S", 7)
    report("5 residue equals alpha on the class, n<=7", rep["passed"])


def test_criterion_05_slow_extension_n8():
    started = time.monotonic()
    classes = len(enumerate_graphs(8))
    rep = verify("r-equals-alpha-S", 8)
    elapsed = time.monotonic() - started
    report(
        f"5 residue equals alpha on the class, n<=8 ({classes} classes, {elapsed:.0f}s)",
        rep["passed"] and classes == 12346 and elapsed < 1800,
    )


def test_criterion_06_maxine_on_p5():
    report("6 Maxine sizes on the 5-path", maxine_all_branches(path(5)) == (2, 3))


def test_criterion_07_lemma_c4_p5():
    rep = verify("lemma-c4-p5", 7)
    report("7 C4-or-P5-center lemma", rep["passed"])


def test_criterion_08_class_chain():
    rep = verify("class-chain", 7)
    report("8 threshold => config-free => in-class", rep["passed"])


def test_criterion_09_cross_oracle_consistency():
    ok = True
    # graphicality: every nonincreasing sequence of length <= 8, terms <= 7
    for length in range(9):
        for terms in itertools.combinations_with_replacement(range(8), length):
            d = tuple(sorted(terms, reverse=True))
            if is_graphical(d) != is_graphical_erdos_gallai(d):
                ok = False
    # exact alpha: branching vs bitmask sweep on seeded random graphs
    rng = random.Random(20250808)
    for _ in range(1000):
        n = rng.randint(1, 16)
        p = rng.uniform(0.1, 0.9)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        g = Graph(n, edges)
        if independence_number(g) != independence_number_bitmask(g):
            ok = False
    report("9 cross-oracle consistency", ok)


def test_criterion_10_enumeration_counts():
    counts = [len(enumerate_graphs(n)) for n in range(1, 8)]
    ok = counts == [1, 2, 4, 11, 34, 156, 1044]
    for n in range(1, 6):
        ok = ok and isomorphism_class_count_labeled(n) == counts[n - 1]
    report("10 enumeration counts", ok)


def test_criterion_11_graph6_round_trip():
    ok = True
    for g in graphs_up_to(6):
        s = emit_graph6(g)
        back = parse_graph6(s)
        ok = ok and back == g and emit_graph6(back) == s
    report("11 graph6 round trip", ok)


def test_analysis_record_invariants_on_small_corpus(capsys, tmp_path):
    """Every emitted record satisfies residue <= maxine_min <= maxine_max
    <= alpha, and in-class records have residue = alpha."""
    src = tmp_path / "corpus.g6"
    src.write_text("\n".join(emit_graph6(g) for g in graphs_up_to(5)) + "\n")
    code = main(["analyze", "--input", str(src)])
    out = capsys.readouterr().out
    ok = code == 0
    for line in out.splitlines():
        rec = json.loads(line)
        ok = ok and rec["residue"] <= rec["maxine_min"] <= rec["maxine_max"] <= rec["alpha"]
        if rec["in_s"]:
            ok = ok and rec["residue"] == rec["alpha"]
    report("extra: analysis record invariants", ok)
