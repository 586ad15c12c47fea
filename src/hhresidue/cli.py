"""Command-line front end.

Subcommands:

- ``residue``: trace the degree-sequence reduction and print the residue;
- ``analyze``: per-graph rows (residue, alpha, Maxine sizes, class
  memberships, witnesses) for a stream of graph6 lines, as JSON lines or
  CSV, read from the same per-graph record the checks use;
- ``verify``: run one enumeration-based check and emit its JSON report, or
  ``verify all``: every check, in registry order, as a JSON array.

Exit codes: 0 success/verified, 1 violation or non-graphical input, 2
usage or parse errors, or output (stdout included) that cannot be
written. Output is byte-deterministic for fixed inputs and
flags. Fields whose exact computation is out of scale for the input are
reported as the explicit string "skipped: scale", never silently omitted.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from collections.abc import Iterable

from .degseq import hh_reduce
from .graph6 import Graph6Error, parse_graph6
from .graphs import SCALE_MAX_N, Graph
from .harness import THEOREM_CHECKS, GraphRecord, verify
from .independence import maxine_run

SKIPPED = "skipped: scale"

CSV_COLUMNS = (
    "graph6",
    "n",
    "degree_sequence",
    "residue",
    "alpha",
    "maxine_min",
    "maxine_max",
    "in_s",
    "matrogenic_config_free",
    "threshold",
    "witness",
    "error",
)


def analyze_graph(g: Graph, strategy: str = "all-branches", seed: int | None = None) -> dict:
    """One output row, keyed by the CSV columns before "error", read from
    a GraphRecord. Exact alpha, Maxine branching and the class scans
    hold "skipped: scale" beyond their bounds in SCALE_MAX_N; single-run
    Maxine strategies have none."""
    rec = GraphRecord(g)
    n = g.n
    if strategy != "all-branches":
        maxine_min = maxine_max = n - len(maxine_run(g, strategy=strategy, seed=seed))
    elif n <= SCALE_MAX_N["maxine branching"]:
        maxine_min, maxine_max = rec.maxine_sizes[0], rec.maxine_sizes[-1]
    else:
        maxine_min = maxine_max = SKIPPED
    scans = n <= SCALE_MAX_N["class scans"]
    w = rec.witness if scans else None
    return {
        "graph6": rec.graph6,
        "n": n,
        "degree_sequence": list(rec.degree_sequence),
        "residue": rec.residue,
        "alpha": rec.alpha if n <= SCALE_MAX_N["alpha"] else SKIPPED,
        "maxine_min": maxine_min,
        "maxine_max": maxine_max,
        "in_s": w is None if scans else SKIPPED,
        "matrogenic_config_free": rec.config_free if scans else SKIPPED,
        "threshold": rec.threshold if scans else SKIPPED,
        "witness": (f"{w[0]}:{','.join(map(str, w[1]))}" if w else None) if scans else SKIPPED,
    }


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return " ".join(map(str, value))
    return str(value)


def _format_step(step: tuple[int, ...]) -> str:
    return "(" + ", ".join(map(str, step)) + ")"


def cmd_residue(args: argparse.Namespace) -> int:
    tokens = args.sequence.replace(",", " ").split()
    try:
        # int() alone would also take "1_0", "+1" and non-ASCII digits
        if not all(tok.isascii() and tok.isdigit() for tok in tokens):
            raise ValueError("not a run of ASCII digits")
        terms = [int(tok) for tok in tokens]  # too many digits: ValueError
    except ValueError:
        print(f"error: {args.sequence!r} is not a comma-separated list of "
              "nonnegative integers", file=sys.stderr)
        return 2
    steps = hh_reduce(terms)
    last, k = steps[-1], len(steps) - 1
    if not any(last):
        end = f"residue: {len(last)}"
    elif last[-1] < 0:
        steps = steps[:-1]
        end = f"not graphical: reducing d^{k - 1} = {_format_step(steps[-1])} produces a negative term"
    else:
        end = (f"not graphical: d^{k} = {_format_step(last)} has largest term {last[0]} "
               f"but only {len(last) - 1} remaining terms")
    lines = [f"d^{i}: {_format_step(step)}" for i, step in enumerate(steps)]
    if not _emit([*lines, end]):
        return 2
    return 1 if any(last) else 0


def _read_tokens(path: str) -> list[str]:
    """The input's lines, stripped. Bytes decode one-to-one (latin-1), so a
    non-ASCII byte fails graph6 parsing on its own line, with its offset."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return [line.strip().decode("latin-1") for line in data.splitlines()]


def cmd_analyze(args: argparse.Namespace) -> int:
    """Read the whole input first (so --out may name the input, and a
    missing input never truncates --out), then write each record as soon
    as it is computed and report each parse error on stderr as it occurs;
    exit 2 at the end when any line failed."""
    try:
        tokens = _read_tokens(args.input)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc.strerror}", file=sys.stderr)
        return 2

    failed = []
    if not _emit(_analysis_lines(tokens, args, failed), args.out):
        return 2
    return 2 if failed else 0


def _analysis_lines(tokens: list[str], args: argparse.Namespace, failed: list[int]):
    """The report's lines, one per nonempty input line (after the CSV
    header), each computed when it is asked for. A line that does not
    parse becomes a row of its graph6 token and error, is reported on
    stderr at once, and its number is appended to failed."""
    csv = args.format == "csv"
    if csv:
        yield ",".join(CSV_COLUMNS)
    for lineno, token in enumerate(tokens, start=1):
        if not token:
            continue
        try:
            g = parse_graph6(token)
        except Graph6Error as exc:
            print(f"line {lineno}: {exc}", file=sys.stderr)
            failed.append(lineno)
            row = {"graph6": token, "error": str(exc)}
        else:
            row = analyze_graph(g, args.strategy, args.seed)
        if csv:
            line = ",".join(_csv_quote(_csv_cell(row.get(column))) for column in CSV_COLUMNS)
            # non-ASCII input bytes as \xNN escapes, as JSON writes \u00NN
            yield line.encode("ascii", "backslashreplace").decode("ascii")
        else:
            yield json.dumps({"line": lineno, **row})


def _csv_quote(cell: str) -> str:
    if any(ch in cell for ch in ',"\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def cmd_verify(args: argparse.Namespace) -> int:
    ids = list(THEOREM_CHECKS) if args.theorem == "all" else [args.theorem]
    try:
        reports = [verify(cid, args.max_n) for cid in ids]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = reports if args.theorem == "all" else reports[0]
    if not _emit([json.dumps(payload, indent=2)], args.out):
        return 2
    return 0 if all(r["passed"] for r in reports) else 1


def _emit(lines: Iterable[str], out_path: str | None = None) -> bool:
    """Print each line to stdout, or to out_path, and flush it as it comes;
    one empty line when there are none. out_path is opened only now, so
    that failing earlier never truncates it. False (after a message) when
    the output cannot be written."""
    try:
        with open(out_path, "w", encoding="utf-8") if out_path else contextlib.nullcontext(sys.stdout) as fh:
            wrote = False
            for line in lines:
                print(line, file=fh, flush=True)
                wrote = True
            if not wrote:
                print(file=fh, flush=True)
    except OSError as exc:
        print(f"error: cannot write {out_path or 'stdout'}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhresidue",
        description="Degree-sequence residues, strong Havel-Hakimi recognition, "
        "independent sets, and enumeration-based checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_res = sub.add_parser("residue", help="trace the reduction of a degree sequence")
    p_res.add_argument("sequence", help='comma-separated terms, e.g. "3,2,2,2,2,1"')

    p_an = sub.add_parser("analyze", help="analyze a stream of graph6 lines")
    p_an.add_argument("--input", default="-", help="graph6 file, or - for stdin")
    p_an.add_argument("--format", choices=("json", "csv"), default="json")
    p_an.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_an.add_argument(
        "--strategy",
        choices=("first", "last", "random", "all-branches"),
        default="all-branches",
        help="Maxine tie-breaking; all-branches explores every choice",
    )
    p_an.add_argument("--seed", type=int, default=0, help="seed for --strategy random")

    p_ver = sub.add_parser("verify", help="run one enumeration-based check, or all")
    p_ver.add_argument("theorem", choices=sorted([*THEOREM_CHECKS, "all"]))
    p_ver.add_argument(
        "--max-n", type=int, default=None, dest="max_n",
        help=f"largest order checked, 1..{SCALE_MAX_N['enumeration']} "
        "(default: each check's own)",
    )
    p_ver.add_argument("--out", default=None, help="write the JSON report here")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    if args.command == "residue":
        return cmd_residue(args)
    if args.command == "analyze":
        return cmd_analyze(args)
    return cmd_verify(args)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
