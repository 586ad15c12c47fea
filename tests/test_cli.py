"""Command-line front end: residue traces, analysis records, verification."""

import csv
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys

import pytest

from hhresidue.cli import CSV_COLUMNS, main
from hhresidue.graph6 import emit_graph6
from hhresidue.graphs import SCALE_MAX_N, Graph

from strategies import cycle, path

P5_G6 = emit_graph6(path(5))
C5_G6 = emit_graph6(cycle(5))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- residue ---------------------------------------------------------------


def test_residue_worked_example(capsys):
    code, out, _ = run(capsys, "residue", "3,2,2,2,2,1")
    assert code == 0
    assert out.splitlines() == [
        "d^0: (3, 2, 2, 2, 2, 1)",
        "d^1: (2, 1, 1, 1, 1)",
        "d^2: (1, 1, 0, 0)",
        "d^3: (0, 0, 0)",
        "residue: 3",
    ]


def test_residue_all_zero_input(capsys):
    code, out, _ = run(capsys, "residue", "0,0")
    assert code == 0
    assert out.splitlines() == ["d^0: (0, 0)", "residue: 2"]


def test_residue_non_graphical_names_failing_step(capsys):
    cases = {
        "3,3,1,1": [
            "d^0: (3, 3, 1, 1)",
            "d^1: (2, 0, 0)",
            "not graphical: reducing d^1 = (2, 0, 0) produces a negative term",
        ],
        # the failing step ends at (1, -1): its first term is not negative
        "3,3,3,1": [
            "d^0: (3, 3, 3, 1)",
            "d^1: (2, 2, 0)",
            "not graphical: reducing d^1 = (2, 2, 0) produces a negative term",
        ],
        # the failing step ends at (0, -1), which starts with a zero
        "2,1,0": [
            "d^0: (2, 1, 0)",
            "not graphical: reducing d^0 = (2, 1, 0) produces a negative term",
        ],
    }
    for sequence, lines in cases.items():
        code, out, _ = run(capsys, "residue", sequence)
        assert code == 1, sequence
        assert out == "".join(line + "\n" for line in lines)


def test_residue_step_impossible(capsys):
    code, out, _ = run(capsys, "residue", "3,1")
    assert code == 1
    assert out == (
        "d^0: (3, 1)\n"
        "not graphical: d^0 = (3, 1) has largest term 3 but only 1 remaining terms\n"
    )


def test_residue_usage_errors(capsys):
    code, _, err = run(capsys, "residue", "3,two,1")
    assert code == 2
    assert "nonnegative integers" in err
    code, _, _ = run(capsys, "residue", "3,-1")
    assert code == 2


@pytest.mark.parametrize(
    "sequence",
    ["1_0,1", "+1,+1", "\u0661,\u0661", "9" * 5000],
    ids=["underscore", "plus-sign", "arabic-indic-digits", "too-many-digits"],
)
def test_residue_accepts_only_ascii_digit_tokens(capsys, sequence):
    code, out, err = run(capsys, "residue", sequence)
    assert code == 2
    assert out == ""
    assert "nonnegative integers" in err


# --- analyze ---------------------------------------------------------------


def write_lines(tmp_path, lines):
    p = tmp_path / "in.g6"
    p.write_text("\n".join(lines) + "\n", encoding="ascii")
    return str(p)


def test_analyze_json_records(tmp_path, capsys):
    src = write_lines(tmp_path, ["A_", P5_G6, C5_G6])
    code, out, _ = run(capsys, "analyze", "--input", src)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    k2, p5, c5 = records

    assert k2["graph6"] == "A_"
    assert (k2["residue"], k2["alpha"], k2["in_s"]) == (1, 1, True)

    assert p5["graph6"] == P5_G6
    assert p5["degree_sequence"] == [2, 2, 2, 1, 1]
    assert (p5["residue"], p5["alpha"]) == (2, 3)
    assert (p5["maxine_min"], p5["maxine_max"]) == (2, 3)
    assert p5["in_s"] is False
    assert p5["witness"].startswith("P5:")

    assert (c5["residue"], c5["alpha"], c5["in_s"]) == (2, 2, True)
    assert c5["witness"] is None

    for rec in records:
        assert rec["residue"] <= rec["maxine_min"] <= rec["maxine_max"] <= rec["alpha"]
        if rec["in_s"]:
            assert rec["residue"] == rec["alpha"]


def test_analyze_reports_parse_errors_and_continues(tmp_path, capsys):
    src = write_lines(tmp_path, ["A_", "!!bad!!", C5_G6])
    code, out, err = run(capsys, "analyze", "--input", src)
    assert code == 2
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 3
    assert "error" in records[1] and records[1]["line"] == 2
    assert records[2]["graph6"] == C5_G6
    assert "line 2" in err


def test_analyze_csv_format(tmp_path, capsys):
    src = write_lines(tmp_path, ["A_", P5_G6])
    code, out, _ = run(capsys, "analyze", "--input", src, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("graph6,n,degree_sequence,residue,alpha,maxine_min")
    assert lines[1].split(",")[:5] == ["A_", "2", "1 1", "1", "1"]
    assert lines[2].split(",")[:5] == [P5_G6, "5", "2 2 2 1 1", "2", "3"]


def test_analyze_single_strategy(tmp_path, capsys):
    src = write_lines(tmp_path, [P5_G6])
    code, out, _ = run(capsys, "analyze", "--input", src, "--strategy", "first")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["maxine_min"] == rec["maxine_max"] == 3


def test_analyze_sorts_each_rows_degrees_once(tmp_path, capsys, monkeypatch):
    """The row's degree sequence and its residue read one sequence."""
    calls = []
    real = Graph.degree_sequence
    monkeypatch.setattr(Graph, "degree_sequence", lambda g: calls.append(g) or real(g))
    src = write_lines(tmp_path, [P5_G6, emit_graph6(cycle(6))])
    code, out, _ = run(capsys, "analyze", "--input", src)
    assert code == 0
    assert [json.loads(line)["degree_sequence"] for line in out.splitlines()] == [[2, 2, 2, 1, 1], [2] * 6]
    assert len(calls) == 2


def test_analyze_skips_out_of_scale_fields(tmp_path, capsys):
    big = emit_graph6(path(12))  # beyond the all-branches bound
    src = write_lines(tmp_path, [big])
    code, out, _ = run(capsys, "analyze", "--input", src)
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["maxine_min"] == "skipped: scale"
    assert rec["alpha"] == 6  # still within the exact-alpha bound


def test_analyze_skips_the_witness_beyond_the_class_scan_bound(tmp_path, capsys):
    src = write_lines(tmp_path, [emit_graph6(path(21))])  # beyond the class-scan bound
    code, out, _ = run(capsys, "analyze", "--input", src)
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["in_s"] == rec["witness"] == "skipped: scale"
    code, out, _ = run(capsys, "analyze", "--input", src, "--format", "csv")
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["in_s"] == row["witness"] == "skipped: scale"


# the analyze columns each scale-table entry bounds
BOUNDED_COLUMNS = {
    "alpha": ["alpha"],
    "maxine branching": ["maxine_min", "maxine_max"],
    "class scans": ["in_s", "matrogenic_config_free", "threshold", "witness"],
}


@pytest.mark.parametrize("what", BOUNDED_COLUMNS)
def test_analyze_computes_up_to_each_bound_and_skips_past_it(tmp_path, capsys, what):
    """A path of the table's order gets computed values; one vertex more,
    "skipped: scale", in JSON and in CSV."""
    bound, fields = SCALE_MAX_N[what], BOUNDED_COLUMNS[what]
    src = write_lines(tmp_path, [emit_graph6(path(bound)), emit_graph6(path(bound + 1))])
    code, out, _ = run(capsys, "analyze", "--input", src)
    assert code == 0
    at, past = map(json.loads, out.splitlines())
    code, out, _ = run(capsys, "analyze", "--input", src, "--format", "csv")
    assert code == 0
    at_csv, past_csv = csv.DictReader(io.StringIO(out))
    for field in fields:
        assert at[field] != "skipped: scale" != at_csv[field], field
        assert past[field] == past_csv[field] == "skipped: scale", field
    if what == "alpha":
        assert at["alpha"] == (bound + 1) // 2


def test_analyze_output_deterministic(tmp_path, capsys):
    src = write_lines(tmp_path, ["A_", P5_G6, C5_G6])
    _, first, _ = run(capsys, "analyze", "--input", src)
    _, second, _ = run(capsys, "analyze", "--input", src)
    assert first == second


def test_analyze_out_file(tmp_path, capsys):
    src = write_lines(tmp_path, ["A_"])
    dest = tmp_path / "report.jsonl"
    code, out, _ = run(capsys, "analyze", "--input", src, "--out", str(dest))
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text().splitlines()[0])["graph6"] == "A_"


def test_analyze_missing_input_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.g6"
    code, out, err = run(capsys, "analyze", "--input", str(missing))
    assert code == 2
    assert out == ""
    assert "error" in err and str(missing) in err


def test_analyze_non_ascii_byte_reports_line(tmp_path, capsys):
    src = tmp_path / "in.g6"
    src.write_bytes(b"A_\nD\xc3\xa9\n" + C5_G6.encode("ascii") + b"\n")
    code, out, err = run(capsys, "analyze", "--input", str(src))
    assert code == 2
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["line"] for r in records] == [1, 2, 3]
    assert "byte 195" in records[1]["error"] and "offset 1" in records[1]["error"]
    assert records[2]["graph6"] == C5_G6
    assert "line 2" in err


@pytest.mark.parametrize("to_file", [False, True])
def test_analyze_writes_each_record_before_parsing_the_next(tmp_path, capsys, monkeypatch, to_file):
    """Each record reaches stdout or --out, and each parse error stderr,
    before the next line is parsed."""
    from hhresidue import cli

    src = write_lines(tmp_path, ["A_", "!!bad!!", C5_G6])
    dest = tmp_path / "report.jsonl"
    real_parse = cli.parse_graph6
    out, err, seen = [], [], []

    def parse(token):
        captured = capsys.readouterr()
        out.append(captured.out)
        err.append(captured.err)
        written = (dest.read_text() if dest.exists() else "") if to_file else "".join(out)
        seen.append((written, "".join(err)))
        return real_parse(token)

    monkeypatch.setattr(cli, "parse_graph6", parse)
    argv = ["analyze", "--input", src] + (["--out", str(dest)] if to_file else [])
    assert main(argv) == 2
    (out1, err1), (out2, err2), (out3, err3) = seen
    assert out1 == "" and err1 == ""
    assert [json.loads(line)["line"] for line in out2.splitlines()] == [1]
    assert err2 == ""
    assert [json.loads(line)["line"] for line in out3.splitlines()] == [1, 2]
    assert err3 == "line 2: " + json.loads(out3.splitlines()[1])["error"] + "\n"


def test_analyze_empty_input_writes_one_empty_line(tmp_path, capsys):
    src = tmp_path / "empty.g6"
    src.write_bytes(b"")
    assert run(capsys, "analyze", "--input", str(src)) == (0, "\n", "")
    code, out, _ = run(capsys, "analyze", "--input", str(src), "--format", "csv")
    assert (code, out) == (0, ",".join(CSV_COLUMNS) + "\n")


def test_analyze_bad_input_keeps_existing_out_file(tmp_path, capsys):
    dest = tmp_path / "report.jsonl"
    dest.write_text("previous report\n")
    missing = tmp_path / "missing.g6"
    code, _, _ = run(capsys, "analyze", "--input", str(missing), "--out", str(dest))
    assert code == 2
    assert dest.read_text() == "previous report\n"


# --- verify ----------------------------------------------------------------


def test_verify_exits_zero_and_reports(capsys):
    code, out, _ = run(capsys, "verify", "forb-equivalence", "--max-n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["graphs_checked"] == 18
    assert payload["violations"] == []


def test_unwritable_out_exits_2(tmp_path, capsys):
    dest = tmp_path / "no-such-dir" / "report.json"
    code, out, err = run(capsys, "verify", "class-chain", "--max-n", "3", "--out", str(dest))
    assert code == 2
    assert out == ""
    assert "cannot write" in err


def test_verify_unknown_theorem(capsys):
    code, _, _ = run(capsys, "verify", "no-such-theorem")
    assert code == 2


def test_verify_rejects_out_of_range_n(capsys):
    code, _, err = run(capsys, "verify", "forb-equivalence", "--max-n", "99")
    assert code == 2
    assert "error" in err


def test_verify_all_registered_theorems(capsys):
    for theorem in (
        "forb-equivalence",
        "minimal-forbidden",
        "residue-bounds",
        "r-equals-alpha-S",
        "lemma-c4-p5",
        "class-chain",
    ):
        n = "6" if theorem == "minimal-forbidden" else "4"
        code, out, _ = run(capsys, "verify", theorem, "--max-n", n)
        assert code == 0, theorem
        assert json.loads(out)["theorem_id"] == theorem


def test_verify_all_reports_every_check_in_order(capsys):
    from hhresidue.harness import THEOREM_CHECKS

    code, out, _ = run(capsys, "verify", "all", "--max-n", "5")
    assert code == 0
    reports = json.loads(out)
    assert [r["theorem_id"] for r in reports] == list(THEOREM_CHECKS)
    assert all(r["n_max"] == 5 and r["passed"] for r in reports)


@pytest.mark.parametrize("theorem", ["class-chain", "all"])
@pytest.mark.parametrize("n", ["0", "9"])
def test_verify_out_of_range_n_exits_2(capsys, theorem, n):
    code, out, err = run(capsys, "verify", theorem, "--max-n", n)
    assert code == 2
    assert out == ""
    assert f"order {n} outside supported range 1..8" in err


def run_module(module, *argv, **env):
    """Run python -m module with src/ on the path and env added."""
    paths = [os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), **env)
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize("module", ["hhresidue.cli", "hhresidue"])
def test_python_m_entry_points(module):
    proc = run_module(module, "verify", "class-chain", "--max-n", "3")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["theorem_id"] == "class-chain"
    assert payload["graphs_checked"] == 7


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv", [("verify", "class-chain", "--max-n", "3"), ("residue", "3,3,1,1")]
)
def test_stdout_write_error_exits_2(argv):
    """A full stdout is an output error (2), reported in one line, not a
    violation (1) with a traceback."""
    paths = [os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "hhresidue", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("encoding", ["ascii", "utf-8"])
def test_analyze_csv_escapes_non_ascii_bytes(tmp_path, encoding):
    """CSV lines are pure ASCII, as JSON lines are: a non-ASCII input byte
    is written as a \\xNN escape whatever stdout's encoding."""
    src = tmp_path / "in.g6"
    src.write_bytes(b"A_\n\xc3\xa9\n")
    proc = run_module(
        "hhresidue", "analyze", "--input", str(src), "--format", "csv",
        PYTHONIOENCODING=encoding,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("line 2: byte 195 outside graph6 range")
    header, first, bad = proc.stdout.splitlines()
    assert header == ",".join(CSV_COLUMNS)
    assert first.startswith("A_,2,")
    assert bad == "\\xc3\\xa9" + "," * 11 + "byte 195 outside graph6 range 63..126 (byte offset 0)"


def test_analyze_csv_quotes_cells_with_quotes_and_commas(tmp_path, capsys):
    """A cell holding a double quote or a comma is quoted, with its double
    quotes doubled, so a CSV reader gets the input token back whole."""
    token = 'A"_,b'
    src = write_lines(tmp_path, [token])
    code, out, err = run(capsys, "analyze", "--input", src, "--format", "csv")
    assert code == 2
    assert err.startswith("line 1: byte 34 outside graph6 range")
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["graph6"] == token
    assert row["error"] == err.removeprefix("line 1: ").rstrip("\n")


def test_usage_error_exit_code(capsys):
    assert main([]) == 2
    assert main(["analyze", "--format", "xml"]) == 2


def test_verify_all_is_byte_identical_across_hash_seeds():
    """String hashing differs between the two processes; the report must
    not."""
    a, b = (
        run_module("hhresidue", "verify", "all", "--max-n", "5", PYTHONHASHSEED=seed)
        for seed in ("1", "2")
    )
    assert a.returncode == b.returncode == 0, a.stderr + b.stderr
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)


def bench_corpus_g6(seed):
    """graph6 lines of the benchmark's analyze corpus, read from
    bench/inputs.py (which imports nothing of the package)."""
    path = os.path.join(os.path.dirname(__file__), "..", "bench", "inputs.py")
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return "".join(r["g6"] + "\n" for r in inputs.analyze_corpus(seed))


def wide_orders_g6():
    """A header-prefixed line of order 9, then seeded G(n, p) graphs of
    orders 62, 63 (the first with the four-byte order field) and 100: the
    codec at both order forms, and rows past every exact bound."""
    rng = random.Random(63)
    lines = []
    for n, p in ((9, 0.5), (62, 0.3), (63, 0.5), (100, 0.1)):
        g = Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])
        lines.append(emit_graph6(g))
    return ">>graph6<<" + "\n".join(lines) + "\n"


# sha256 of stdout for fixed runs: a kernel change that alters any
# reported byte fails here. Change a digest only with an intended change
# of output, and say so where the change is recorded.
PINNED_STDOUT_SHA256 = {
    "analyze-json-seed-0": "e51921419468ea098047344b269515a79d8c4d6a33bcd69525470ab3e91be680",
    "analyze-csv-seed-0": "de8d47a86a222f273531f30faafd53cfbefe6a5775c4d059b6a8092f6d14590a",
    "analyze-json-seed-0-first": "277d492c4760838d044038d4aa09b2f8c62b4e9cd8c8567a373b4f1ae9345c7a",
    "analyze-json-seed-0-last": "65a412f84607a807a2bb0ef25b29b3b0dd2e53168f91a576c56203090d0db567",
    "analyze-json-seed-0-random-3": "51605651f161813c3b41450053ab4f3f4ef7c96b71511a2d12239c9ba345913c",
    "analyze-json-wide-orders": "9ab6dc153eb7e6591d5d77146417d9d85f3608f1e83669ea110a11e71d5208a1",
    "verify-all-max-n-7": "f7d42e2325680d295c72f501ae13a04b8537831d9ddcdd2462d850c68408e69e",
}


def test_outputs_match_pinned_digests(tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(bench_corpus_g6(0))
    wide = tmp_path / "wide.g6"
    wide.write_text(wide_orders_g6())
    runs = {
        "analyze-json-seed-0": ("analyze", "--input", str(corpus), "--format", "json"),
        "analyze-csv-seed-0": ("analyze", "--input", str(corpus), "--format", "csv"),
        "analyze-json-seed-0-first": ("analyze", "--input", str(corpus), "--strategy", "first"),
        "analyze-json-seed-0-last": ("analyze", "--input", str(corpus), "--strategy", "last"),
        "analyze-json-seed-0-random-3": (
            "analyze", "--input", str(corpus), "--strategy", "random", "--seed", "3",
        ),
        "analyze-json-wide-orders": ("analyze", "--input", str(wide)),
        "verify-all-max-n-7": ("verify", "all", "--max-n", "7"),
    }
    for key, argv in runs.items():
        proc = run_module("hhresidue", *argv)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == PINNED_STDOUT_SHA256[key], key
