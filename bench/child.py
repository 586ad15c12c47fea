"""One benchmark process: a fresh interpreter that imports the package and
runs passes of one workload, then writes what it measured as JSON.

    python3 bench/child.py import RESULT
    python3 bench/child.py {certify,analyze,sequences} RESULT --out DIR
                           [--input FILE] [--seconds S] [--trace]

Passes repeat until ``--seconds`` have gone by (at least one; certify is
given 0, since only its first pass has a cold enumeration cache). With
``--trace`` the child runs exactly one pass, with spans around every
cross-layer call, and adds the spans to the result.

Untraced, every time is also reported as CPU time at the reference speed
(see ``REFERENCE_S``).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import time
import traceback
from itertools import islice, permutations
from pathlib import Path
from types import SimpleNamespace

from metrics import CHECK_IDS
from spans import Tracer

# Machine-speed sampling. The 2-vCPU host the benchmark was tuned on runs
# other tenants' processes on the same kernel and cores: a child can wait
# for a CPU for a third of its wall time, and the CPU it gets changes speed
# by up to 2x from one tenth of a second to the next, for minutes at a time.
# No statistic over a run's wall times evened that out. So each timed unit
# of work (an import, a check, an analyze or sequences pass) is measured in
# process CPU time, which leaves out the waits (the package is
# single-threaded and does not block), and is bracketed by samples of a
# fixed reference loop, with a timer taking another sample every
# SAMPLE_PERIOD_S of CPU time while the unit runs. Sampling time is left out
# of the unit's time; each stretch of CPU time between two samples is scaled
# by REFERENCE_S over the mean of the two samples, which gives the unit's
# time in seconds at the reference speed. REFERENCE_S is what one sample
# takes on that host in its fast state.
REFERENCE_S = 0.00035
REFERENCE_TRIES = 2
SAMPLE_PERIOD_S = 0.05

OP_STARTS = {
    "certify": ("cli.main",),
    "analyze": ("graph6.parse_graph6",),
    "sequences": ("degseq.residue", "degseq.is_graphical"),
}

_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4), (2, 5))


def _reference_loop() -> int:
    """Fixed pure-Python work of the kind the package does (relabel a small
    graph under permutations, build sorted tuples, count them in a dict);
    it shares no code with the package. With a tight arithmetic loop in its
    place, scaled certify times varied about three times as much."""
    seen: dict[tuple, int] = {}
    for perm in islice(permutations(range(6)), 60):
        key = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in _EDGES))
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


class Units:
    """Wall times of units of work and, with ``scale``, their CPU times at
    the reference speed."""

    def __init__(self, scale: bool):
        self.scale = scale
        self.wall: list[float] = []
        self.scaled: list[float] = []
        # CPU-time start, end and fastest try; wall time taken
        self.samples: list[tuple[float, float, float, float]] = []
        self._sampling = False
        if scale:
            _reference_loop()  # the first run is slower; keep it out of the samples
            signal.signal(signal.SIGPROF, self._on_timer)

    def _on_timer(self, signum, frame) -> None:
        if not self._sampling:
            self._sample()

    def _sample(self) -> None:
        """Fastest of a few reference-loop tries (a try the scheduler
        interrupts only reads slower), with the collector held off so that
        it runs in the program's time, as it would have without sampling."""
        self._sampling = True
        collecting = gc.isenabled()
        gc.disable()
        wall = time.perf_counter()
        start = time.thread_time()
        best = float("inf")
        for _ in range(REFERENCE_TRIES):
            t = time.thread_time()
            _reference_loop()
            best = min(best, time.thread_time() - t)
        self.samples.append((start, time.thread_time(), best, time.perf_counter() - wall))
        if collecting:
            gc.enable()
        self._sampling = False

    def run(self, fn, *args):
        if not self.scale:
            t = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.wall.append(time.perf_counter() - t)
        self._sample()
        first = len(self.samples) - 1
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        w0 = time.perf_counter()
        t0 = time.thread_time()
        try:
            return fn(*args)
        finally:
            t1 = time.thread_time()
            w1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_PROF, 0)
            sampling = sum(s[3] for s in self.samples[first + 1 :] if s[0] < t1)
            self._sample()
            scaled = 0.0
            samples = self.samples[first:]
            for (_, a_end, a, _), (b_start, _, b, _) in zip(samples, samples[1:]):
                stretch = min(b_start, t1) - max(a_end, t0)
                if stretch > 0:
                    scaled += stretch * 2 * REFERENCE_S / (a + b)
            self.wall.append(w1 - w0 - sampling)
            self.scaled.append(scaled)


def peak_rss_kb() -> int:
    """Peak RSS of this process since it started. ``ru_maxrss`` is not
    used where avoidable: across fork and exec it keeps the parent's peak,
    and the parent holds the references of every check."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def certify_pass(main, out: Path, units: Units) -> dict:
    codes = {}
    for cid in CHECK_IDS:
        try:
            codes[cid] = units.run(main, ["verify", cid, "--out", str(out / f"{cid}.json")])
        except Exception:
            codes[cid] = traceback.format_exc(limit=3)
    return codes


def analyze_pass(main, src: Path, out: Path) -> dict:
    try:
        code = main(["analyze", "--input", str(src), "--format", "json", "--out", str(out)])
    except Exception:
        code = traceback.format_exc(limit=3)
    return {"code": code, "out": str(out)}


def sequences_pass(degseq, batch: list[dict]) -> dict:
    got = []
    for item in batch:
        fn = degseq.residue if item["kind"] == "graphical" else degseq.is_graphical
        try:
            got.append(fn(item["terms"]))
        except Exception as exc:
            got.append(f"{type(exc).__name__}: {exc}")
    return {"results": got}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("import", "certify", "analyze", "sequences"))
    parser.add_argument("result")
    parser.add_argument("--input")
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    setup = Units(scale=not args.trace)
    setup.run(importlib.import_module, "hhresidue")  # timed: this is set-up
    import hhresidue

    result: dict = {"import_s": setup.wall[0]}
    if setup.scale:
        result["import_scaled_s"] = setup.scaled[0]
    if args.workload != "import":
        import hhresidue.cli
        import hhresidue.degseq

        tracer = Tracer(OP_STARTS[args.workload]) if args.trace else None
        if tracer:
            tracer.install()
            main_fn = tracer.wrap(hhresidue.cli.main, "cli.main", "bench")
            degseq = SimpleNamespace(
                residue=tracer.wrap(hhresidue.degseq.residue, "degseq.residue", "bench"),
                is_graphical=tracer.wrap(hhresidue.degseq.is_graphical, "degseq.is_graphical", "bench"),
            )
        else:
            main_fn, degseq = hhresidue.cli.main, hhresidue.degseq
        if args.workload == "sequences":
            batch = json.loads(Path(args.input).read_text())

        units = Units(scale=not tracer)

        def one_pass(k: int) -> dict:
            if args.workload == "certify":
                if tracer:  # fill the enumeration cache first, so the checks run warm
                    enumerate_graphs = tracer.wrap(
                        hhresidue.enumeration.enumerate_graphs, "enumeration.enumerate_graphs", "bench"
                    )
                    for n in range(1, 8):
                        enumerate_graphs(n)
                return {"codes": certify_pass(main_fn, Path(args.out), units)}
            if args.workload == "analyze":
                return units.run(analyze_pass, main_fn, Path(args.input), Path(args.out) / f"pass{k}.jsonl")
            return units.run(sequences_pass, degseq, batch)

        if tracer:
            one_pass = tracer.wrap(one_pass, "bench.pass", "bench")
        passes = []
        deadline = time.perf_counter() + args.seconds
        while not passes or (not tracer and time.perf_counter() < deadline):
            first = len(units.wall)
            t = time.perf_counter()
            outcome = one_pass(len(passes))
            outcome["s"] = time.perf_counter() - t if tracer else sum(units.wall[first:])
            if units.scale:
                outcome["scaled_s"] = sum(units.scaled[first:])
            passes.append(outcome)
        if tracer:
            tracer.uninstall()
            result["spans"] = tracer.spans
        result["passes"] = passes
        if args.workload == "certify":
            enum = hhresidue.enumeration.enumerate_graphs
            result["class_counts"] = [len(enum(n)) for n in range(1, 8)]
    result["maxrss_kb"] = peak_rss_kb()
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
