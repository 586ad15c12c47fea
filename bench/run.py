"""hhresidue benchmark: drives the public API from outside, one child
process at a time.

    python3 bench/run.py --workload {certify,analyze,sequences,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Workloads (see README.md for why each exists):
  certify    `hhresidue verify <id>` for the six checks at their default
             caps, each pass in a fresh interpreter (cold enumeration cache);
  analyze    `hhresidue analyze` over a seeded graph6 corpus;
  sequences  degseq.residue / degseq.is_graphical on long seeded sequences.

With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of one traced pass (and the overhead against one
untraced pass). Every output is checked against independent references
after timing. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `--workload all` runs every
workload untraced and traced and prints the tables.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import oracles  # noqa: E402
from metrics import CHECK_IDS, E2E_ALIASES, END_TO_END, LAYERS, PER_LAYER  # noqa: E402
from spans import layer_metrics  # noqa: E402

WORKLOADS = ("certify", "analyze", "sequences")
# A run is split over several children, each preceded by fresh-interpreter
# import samples, so that pass times and set-up times both spread over the
# whole run instead of sitting in one stretch of a noisy machine.
SLICES = 6
SETUP_PER_CHILD = 4
# Traced runs alternate untraced and traced single-pass children and keep
# the fastest of each, so that the overhead is not a comparison of two
# different stretches of machine speed.
TRACE_ROUNDS = 3
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run (as opposed to the program answering
    wrongly, which is counted in ``failed``)."""


def child(work: Path, workload: str, *args: str, trace: bool = False) -> dict:
    """Run bench/child.py in a fresh interpreter and return its result."""
    result = work / "child-result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(result), *args]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"child {workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text())


class Run:
    """One workload's passes and their check results."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.workload, self.seconds, self.work = workload, seconds, work
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.pass_s: list[float] = []  # CPU time at the reference speed
        self.wall_s: list[float] = []
        self.setup_s: list[float] = []  # CPU time at the reference speed
        self.ops_per_pass = 0
        self.rss_kb: list[int] = []
        self.children = 0
        self.composition: dict = {"seed": "not used (certify generates no input)"}
        if workload == "analyze":
            self.corpus = inputs.analyze_corpus(seed)
            self.input = work / "corpus.g6"
            self.input.write_text("".join(r["g6"] + "\n" for r in self.corpus))
            self.ops_per_pass = len(self.corpus)
            self.composition = {"seed": seed, **inputs.corpus_composition(self.corpus)}
            self.references: list | None = None
        elif workload == "sequences":
            self.batch = inputs.sequence_batch(seed)
            self.input = work / "sequences.json"
            self.input.write_text(json.dumps(self.batch))
            self.ops_per_pass = len(self.batch)
            self.composition = {"seed": seed, **inputs.batch_composition(self.batch)}
        else:
            self.ops_per_pass = len(CHECK_IDS)

    def measure(self, trace: bool = False, once: bool = False) -> dict:
        """Children until the time is up, or exactly one pass when traced
        or ``once``. A certify child runs one pass (a cold cache needs a
        fresh interpreter); the others run passes for a slice of the run.
        Each child's outputs are checked before the next starts. Returns
        the last child's result."""
        once = once or trace
        measured = 0.0  # child time only, so that checks do not eat into the run
        if not once and not self.setup_s:
            child(self.work, "import")  # may compile bytecode; not counted
        while True:
            if not once:
                self.setup_s += [child(self.work, "import")["import_scaled_s"] for _ in range(SETUP_PER_CHILD)]
            single = once or self.workload == "certify"
            seconds = 0.0 if single else min(self.seconds - measured, self.seconds / SLICES)
            out = self.out_dir()
            args = ["--out", str(out), "--seconds", str(seconds)]
            if self.workload != "certify":
                args += ["--input", str(self.input)]
            started = time.perf_counter()
            res = child(self.work, self.workload, *args, trace=trace)
            measured += time.perf_counter() - started
            if self.workload == "certify":
                self.check_certify(res, out)
            else:
                self.check_passes(res)
            self.wall_s += [p["s"] for p in res["passes"]]
            if not trace:
                self.pass_s += [p["scaled_s"] for p in res["passes"]]
            self.rss_kb.append(res["maxrss_kb"])
            if once or measured >= self.seconds:
                return res

    def out_dir(self) -> Path:
        self.children += 1
        out = self.work / f"{self.workload}-{self.children}"
        out.mkdir()
        return out

    def check_certify(self, res: dict, out: Path) -> None:
        counts = res.get("class_counts")
        wrong_counts = [] if counts == list(oracles.CLASS_COUNTS) else [
            f"class counts {counts}, expected {list(oracles.CLASS_COUNTS)}"
        ]
        for p in res["passes"]:
            for cid in CHECK_IDS:
                path = out / f"{cid}.json"
                report = json.loads(path.read_text()) if path.exists() else None
                problems = oracles.check_report(cid, p["codes"].get(cid), report)
                if cid == "forb-equivalence":  # the check that fills the enumeration cache
                    problems += wrong_counts
                self.tally(problems)

    def check_passes(self, res: dict) -> None:
        if self.workload == "sequences":
            for p in res["passes"]:
                for item, got in zip(self.batch, p["results"]):
                    self.tally(oracles.check_sequence(item, got))
            return
        if self.references is None:
            self.references = [oracles.RecordReference(r, i) for i, r in enumerate(self.corpus, 1)]
        for p in res["passes"]:
            lines = Path(p["out"]).read_text().splitlines() if p["code"] == 0 else []
            if len(lines) != len(self.references):
                self.attempted += len(self.references)
                self.failed += len(self.references)
                self.problems.append(f"analyze exit code {p['code']!r}, {len(lines)} records")
                continue
            for ref, line in zip(self.references, lines):
                self.tally(ref.check(json.loads(line)))

    def tally(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems

    def end_to_end(self) -> dict[str, float]:
        # CPU times at the reference speed (child.REFERENCE_S): the host
        # preempts the child and changes speed by up to 2x within a run,
        # which wall times cannot even out (README.md).
        pass_s = statistics.median(self.pass_s)
        return {
            "setup_s": statistics.median(self.setup_s),
            "pass_s": pass_s,
            "ops_per_s": self.ops_per_pass / pass_s,
            "peak_rss_mb": statistics.median(self.rss_kb) / 1024,
        }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    run = Run(workload, seed, seconds, work)
    print(f"== {workload}  inputs: {json.dumps(run.composition)}")
    if trace:
        untraced_s, traced = [], []
        for _ in range(TRACE_ROUNDS):
            untraced_s.append(run.measure(once=True)["passes"][0]["s"])
            traced.append(run.measure(trace=True))
        fastest = min(traced, key=lambda res: res["passes"][0]["s"])
        metrics = layer_metrics(fastest["spans"], min(untraced_s))
        units = {name: unit for name, unit, *_ in PER_LAYER}
        print_layers(metrics)
    else:
        run.measure()
        metrics = run.end_to_end()
        units = {name: unit for name, unit, *_ in END_TO_END}
        print_end_to_end(workload, metrics, run)
    for problem in run.problems[:20]:
        print(f"   wrong: {problem}")
    return {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def print_end_to_end(workload: str, m: dict, run: Run) -> None:
    aliases = E2E_ALIASES[workload]
    wall = statistics.quantiles(run.wall_s, n=4) if len(run.wall_s) > 1 else run.wall_s * 3
    notes = {
        "setup_s": f"median of {len(run.setup_s)} fresh `import hhresidue`, CPU time at reference speed",
        "pass_s": f"median of {len(run.pass_s)} passes of {run.ops_per_pass} operations, CPU time at "
        f"reference speed (wall quartiles {wall[0]:.4f} {wall[1]:.4f} {wall[2]:.4f})",
        "ops_per_s": "operations per pass / pass_s",
        "peak_rss_mb": f"median over {len(run.rss_kb)} child processes",
    }
    print("   end-to-end (untraced)")
    for name, unit, *_ in END_TO_END:
        label = f"{name} = {aliases[name]}" if name in aliases else name
        print(f"   {label:<34} {m[name]:>12.4f} {unit:<6} {notes[name]}")
    frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"   {'failed_frac':<34} {frac:>12.4f} {'ratio':<6} {run.failed} of {run.attempted} operations")


def print_layers(m: dict) -> None:
    wall = m["trace.wall.s"]
    print(f"   fastest of {TRACE_ROUNDS} traced passes {wall:.3f} s, of {TRACE_ROUNDS} untraced "
          f"{m['trace.untraced.s']:.3f} s, overhead {m['trace.overhead_frac']:+.1%}")
    print(f"   {'layer':<14} {'self s':>9} {'share':>7} {'inclusive s':>12}")
    for layer in LAYERS:
        self_s = m[f"{layer}.self.s"]
        print(f"   {layer:<14} {self_s:>9.3f} {self_s / wall:>7.1%} {m[layer + '.incl.s']:>12.3f}")
    rest = m["trace.bench.self.s"]
    print(f"   {'(bench)':<14} {rest:>9.3f} {rest / wall:>7.1%}")
    for name, unit, _, moves in PER_LAYER:
        if not name.endswith((".self.s", ".incl.s")) and not name.startswith("trace."):
            value = f"{m[name]:>12d}" if isinstance(m[name], int) else f"{m[name]:>12.4f}"
            print(f"   {name:<42} {value} {unit:<6} {moves}")


def declared_names() -> tuple[set, set]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return set(), set()
    return {m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "hhresidue" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'hhresidue'}", file=sys.stderr)
        return 2
    e2e, per_layer = declared_names()
    if e2e != {n for n, *_ in END_TO_END} or per_layer != {n for n, *_ in PER_LAYER}:
        print("error: BENCHMARK.json and bench/metrics.py list different metrics", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the reference checks use the package's exhaustive oracles
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"networkx {oracles.networkx_version()}")

    work = ROOT / ".bench_run" / f"{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "all":
            summary = {}
            for trace in (False, True):
                for workload in WORKLOADS:
                    sub = work / f"{workload}-{int(trace)}"
                    sub.mkdir()
                    summary[f"{workload}/trace{int(trace)}"] = run_workload(
                        workload, args.seed, args.seconds, trace, sub
                    )
            print(json.dumps(summary))
        else:
            print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
