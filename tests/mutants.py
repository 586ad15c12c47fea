"""Known wrong versions of the source, each of which some test must catch.

Each entry of MUTANTS is (source file, old snippet, new snippet, test
files): replacing the snippet, which occurs exactly once in the file,
breaks the program in one known way, and the named test files must then
fail. Run

    python tests/mutants.py

main() copies the checkout without .git to a temporary directory, applies
each entry there in turn, runs only its test files, and restores the file.
The whole checkout is copied because tests/conftest.py puts its own ../src
first on the path, and some tests read bench/, scripts/ and pyproject.toml
by path. It exits 1 when a mutant survives (its tests pass), when pytest ends
in any other way than failed tests, or when an old snippet does not occur
exactly once. tests/test_mutants.py checks the snippets alone, in
milliseconds, so a change that moves one fails at once; carry the entry
forward or delete it, saying why in CHANGES.md.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # a report passes whatever it found
    ("src/hhresidue/harness.py", '"passed": not violations,', '"passed": True,', ["tests/test_harness.py"]),
    # minimal-forbidden keeps the sweep's verdict after the catalog part
    ("src/hhresidue/harness.py", '    report["passed"] = not violations\n', "", ["tests/test_harness.py"]),
    # a class is named by a witness on fewer than all its vertices
    (
        "src/hhresidue/harness.py",
        "if w is None or len(w[1]) < rec.graph.n:",
        "if w is None:",
        ["tests/test_harness.py"],
    ),
    # analyze writes the witness's vertices where its name belongs
    (
        "src/hhresidue/cli.py",
        '''f"{w[0]}:{','.join(map(str, w[1]))}"''',
        '''f"{w[1]}:{','.join(map(str, w[0]))}"''',
        ["tests/test_cli.py"],
    ),
    # residue reads a negative ending from the largest term of the last step
    ("src/hhresidue/cli.py", "elif last[-1] < 0:", "elif last[0] < 0:", ["tests/test_cli.py"]),
    # analyze exits 0 when a line failed to parse
    ("src/hhresidue/cli.py", "return 2 if failed else 0", "return 0", ["tests/test_cli.py"]),
    # residue accepts non-ASCII digits such as the Arabic-Indic ones
    ("src/hhresidue/cli.py", "tok.isascii() and tok.isdigit()", "tok.isdigit()", ["tests/test_cli.py"]),
    # output with no lines writes nothing, not one empty line
    (
        "src/hhresidue/cli.py",
        "            if not wrote:\n                print(file=fh, flush=True)\n",
        "",
        ["tests/test_cli.py"],
    ),
    # a quoted CSV cell keeps its double quotes single
    ("src/hhresidue/cli.py", """cell.replace('"', '""')""", "cell", ["tests/test_cli.py"]),
    # the configuration needs three vertices u sees and w does not
    (
        "src/hhresidue/recognition.py",
        "(au & ~adj[w] & ~(1 << w)).bit_count() >= 2:",
        "(au & ~adj[w] & ~(1 << w)).bit_count() >= 3:",
        ["tests/test_recognition.py"],
    ),
    # the configuration may take w itself as one of u's two neighbours outside N(w)
    ("src/hhresidue/recognition.py", "au & ~adj[w] & ~(1 << w)", "au & ~adj[w]", ["tests/test_recognition.py"]),
    # the definitional oracle's prefix drops the first vertex, not the last
    (
        "src/hhresidue/recognition.py",
        "for a in adj[:-1]))",
        "for a in adj[1:]))",
        ["tests/test_recognition.py"],
    ),
    # the forbidden scan looks a prefix's code up among the codes one position shorter
    ("src/hhresidue/recognition.py", "levels[m], 1 << m", "levels[m - 1], 1 << m", ["tests/test_recognition.py"]),
    # the forbidden scan takes its last position for a prefix and extends past it
    ("src/hhresidue/recognition.py", "if m + 1 == len(levels):", "if m == len(levels):", ["tests/test_recognition.py"]),
    # the definitional oracle returns the prefix's answer without the top sweep
    ("src/hhresidue/recognition.py", "if first is not None:", "if True:", ["tests/test_recognition.py"]),
    # the peel deletes only isolated vertices, so a threshold graph with an edge keeps a core
    ("src/hhresidue/recognition.py", "if d == 0 or d == full:", "if d == 0:", ["tests/test_recognition.py"]),
    # the forbidden scan never clears a chosen vertex's bit again
    ("src/hhresidue/recognition.py", "rows[w] ^= bit", "pass", ["tests/test_recognition.py"]),
    # alpha folds vertices of degree 2 as if pendant
    ("src/hhresidue/independence.py", "if dv <= 1:", "if dv <= 2:", ["tests/test_independence.py"]),
    # the definitional sweep's mask table also leaves out five-vertex masks
    ("src/hhresidue/recognition.py", "mask.bit_count() >= 5)", "mask.bit_count() >= 6)", ["tests/test_recognition.py"]),
    # Maxine branching counts every candidate as its own branch size
    ("src/hhresidue/independence.py", "len(cands) // 2", "len(cands)", ["tests/test_independence.py"]),
    # Maxine branching memoises no state, so it revisits each one
    ("src/hhresidue/independence.py", "    memo[mask] = sizes\n", "", ["tests/test_independence.py"]),
    # the reduction steps a largest term equal to the number of terms
    ("src/hhresidue/degseq.py", "0 < d[0] < len(d):", "0 < d[0] <= len(d):", ["tests/test_degseq.py"]),
    # alpha always takes the branching vertex
    (
        "src/hhresidue/independence.py",
        "max(1 + _alpha(adj, mask & ~(adj[vbest] | bit)), _alpha(adj, mask ^ bit))",
        "1 + _alpha(adj, mask & ~(adj[vbest] | bit))",
        ["tests/test_independence.py"],
    ),
    # graph6 parsing accepts set padding bits
    ("src/hhresidue/graph6.py", 'if "1" in bits[npairs:]:', "if False:", ["tests/test_graph6.py"]),
    # graph6 emits the pair bits last pair first
    ("src/hhresidue/graph6.py", 'f"0{npairs}b")[::-1]', 'f"0{npairs}b")', ["tests/test_graph6.py"]),
    # graph6 emits the pair bits without padding them to whole bytes first
    ("src/hhresidue/graph6.py", " << (-npairs % 8)", "", ["tests/test_graph6.py"]),
    # graph6 emits column j from bit j(j+1)/2, one column too far up
    ("src/hhresidue/graph6.py", "<< (j * (j - 1) // 2)", "<< (j * (j + 1) // 2)", ["tests/test_graph6.py"]),
    # graph6 parsing sets only each vertex's neighbours below it
    ("src/hhresidue/graph6.py", "adj[i] |= bit", "pass", ["tests/test_graph6.py"]),
    # iter_bits reads a mask's second nine-bit chunk from a table one bit too low
    ("src/hhresidue/graphs.py", "_bits_table(9)", "_bits_table(8)", ["tests/test_graphs.py"]),
    # an order equal to a bound's upper end is refused
    ("src/hhresidue/graphs.py", "lo <= n <= hi", "lo <= n < hi", ["tests/test_graphs.py"]),
    # iter_bits decodes a mask of 2^27 or more one bit too high
    ("src/hhresidue/graphs.py", "low.bit_length() - 1", "low.bit_length()", ["tests/test_graphs.py"]),
    # alpha's pass also reads a vertex removed earlier in the same pass
    (
        "src/hhresidue/independence.py",
        "            if not mask >> v & 1:\n                continue  # the neighbour of a vertex taken this pass\n",
        "",
        ["tests/test_independence.py"],
    ),
    # the co-domino literal loses its edge 3-5
    (
        "src/hhresidue/recognition.py",
        "(2, 3), (2, 4), (3, 5)]),",
        "(2, 3), (2, 4)]),",
        ["tests/test_catalog.py"],
    ),
    # K_{2,3} and K_{2,3}+ trade places in the table
    (
        "src/hhresidue/recognition.py",
        '''    "K_{2,3}": Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
    # K_{2,3} plus the edge 2-3; the complement of K2 + P3
    "K_{2,3}+": Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)]),''',
        '''    "K_{2,3}+": Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)]),
    # K_{2,3} plus the edge 2-3; the complement of K2 + P3
    "K_{2,3}": Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),''',
        ["tests/test_catalog.py"],
    ),
    # a new vertex may skip vertex 0 among those it must join
    (
        "src/hhresidue/enumeration.py",
        "if d == k - 1)",
        "if d == k - 1 and u)",
        ["tests/test_enumeration.py"],
    ),
    # a neighbour of a pattern vertex of degree d has its key raised as if d were d + 1
    ("src/hhresidue/enumeration.py", "rise = _RAISE[d]", "rise = _RAISE[d + 1]", ["tests/test_enumeration.py"]),
    # the new vertex counts each triangle once per edge end inside the pattern
    ("src/hhresidue/enumeration.py", "ends // 2 << 64", "ends << 64", ["tests/test_enumeration.py"]),
    # a vertex's key counts each triangle through it twice
    (
        "src/hhresidue/enumeration.py",
        "for u in iter_bits(a)) // 2 << 64",
        "for u in iter_bits(a)) << 64",
        ["tests/test_enumeration.py"],
    ),
    # the matcher maps by invariant alone, without checking adjacency
    (
        "src/hhresidue/enumeration.py",
        "if (av >> j & 1) != (hw >> image[j] & 1):",
        "if False:",
        ["tests/test_enumeration.py"],
    ),
    # the twin rule sees false twins only, equal open neighbourhoods
    (
        "src/hhresidue/enumeration.py",
        "lower.append(open_twin.get(a, 0) | closed_twin.get(closed, 0))",
        "lower.append(open_twin.get(a, 0))",
        ["tests/test_enumeration.py"],
    ),
    # the twin rule sees true twins only, equal closed neighbourhoods
    (
        "src/hhresidue/enumeration.py",
        "lower.append(open_twin.get(a, 0) | closed_twin.get(closed, 0))",
        "lower.append(closed_twin.get(closed, 0))",
        ["tests/test_enumeration.py"],
    ),
    # adjacent twins are compared without taking each out of the other's neighbourhood
    ("src/hhresidue/enumeration.py", "closed = a | 1 << v", "closed = a", ["tests/test_enumeration.py"]),
    # a twin class's pattern keeps its highest labels, not its lowest
    (
        "src/hhresidue/enumeration.py",
        "if p & (bit | low) != bit]",
        "if p & (bit | low) != low]",
        ["tests/test_enumeration.py"],
    ),
    # a pattern vertex gains a degree but not the new neighbour in its histogram
    ("src/hhresidue/enumeration.py", "gain = (1 << 72) - _WEIGHT[k]", "gain = 1 << 72", ["tests/test_enumeration.py"]),
    # a record field is computed on every read, never kept
    (
        "src/hhresidue/harness.py",
        "value = rec.__dict__[self.name] = self.compute(rec)",
        "value = self.compute(rec)",
        ["tests/test_harness.py"],
    ),
    # the lemma test finds induced 4-cycles through v but no 5-path centred at v
    (
        "src/hhresidue/harness.py",
        "            for a in iter_bits(a_set):\n                if b_set & ~adj[a]:\n                    return True\n",
        "",
        ["tests/test_harness.py"],
    ),
    # the lemma holds v in every maximum independent set when alpha(G - v) = alpha(G)
    (
        "src/hhresidue/harness.py",
        "independence_number_without(g, v) < rec.alpha",
        "independence_number_without(g, v) <= rec.alpha",
        ["tests/test_harness.py"],
    ),
    # the reference sweep extends a set by a neighbour of its last vertex
    ("src/hhresidue/independence.py", "cand & ~adj[v] & -(2 << v)", "cand & -(2 << v)", ["tests/test_independence.py"]),
    # alpha(G - v) keeps v
    (
        "src/hhresidue/independence.py",
        "_alpha(g.adj, ((1 << g.n) - 1) ^ 1 << v)",
        "_alpha(g.adj, (1 << g.n) - 1)",
        ["tests/test_independence.py"],
    ),
    # the histogram step lowers the needed terms of a level to that same level
    ("src/hhresidue/degseq.py", "count[level - 1] += need", "count[level] += need", ["tests/test_degseq.py"]),
    # the walk moves a whole level that holds exactly the terms still needed
    ("src/hhresidue/degseq.py", "while count[level] < need:", "while count[level] <= need:", ["tests/test_degseq.py"]),
    # the terms carried from the level above replace, not join, the level's kept terms
    ("src/hhresidue/degseq.py", "count[level] += carry - need", "count[level] += carry", ["tests/test_degseq.py"]),
    # a largest term equal to the number of terms passes the first check
    ("src/hhresidue/degseq.py", "if top > len(terms) - 1:", "if top > len(terms):", ["tests/test_degseq.py"]),
    # each parent loses its last neighbourhood pattern, so some classes are never grown
    (
        "src/hhresidue/enumeration.py",
        "    return patterns\n\n\ndef _lower_twins",
        "    return patterns[:-1]\n\n\ndef _lower_twins",
        ["tests/test_orbit_count.py"],
    ),
    # the matcher rejects every pair, so every candidate is kept as a new class
    (
        "src/hhresidue/enumeration.py",
        "return _extend_match(g, h, [by_key[key] for key in ig], [])",
        "return False",
        ["tests/test_orbit_count.py"],
    ),
    # every candidate goes to its parent's buckets, so a class with a tied least key is kept once per parent
    (
        "src/hhresidue/enumeration.py",
        "(own if sorted_key[0] < sorted_key[1] else buckets)",
        "own",
        ["tests/test_enumeration.py"],
    ),
    # the matcher may map two vertices to one
    ("src/hhresidue/enumeration.py", "        if w in image:\n            continue\n", "", ["tests/test_enumeration.py"]),
    # the forbidden scan keeps a vertex chosen after the subsets through it are done
    ("src/hhresidue/recognition.py", "            chosen.pop()\n", "", ["tests/test_recognition.py"]),
    # the peel also deletes vertices of degree 1 among those left, so P5 peels to nothing
    ("src/hhresidue/recognition.py", "if d == 0 or d == full:", "if d <= 1 or d == full:", ["tests/test_recognition.py"]),
    # the scan names a copy by its labels in the core, not in the host
    ("src/hhresidue/recognition.py", "verts[i] for i in hit[1]", "i for i in hit[1]", ["tests/test_recognition.py"]),
    # the scan covers the core's vertices under their host labels
    (
        "src/hhresidue/recognition.py",
        "adj = tuple(sum([1 << label[u] for u in iter_bits(adj[v] & core)]) for v in verts)",
        "adj = tuple(adj[v] & core for v in verts)",
        ["tests/test_recognition.py"],
    ),
]


def main() -> int:
    survived = []
    for path, old, new, _tests in MUTANTS:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            survived.append(f"{path}: {old!r} occurs {count} times")
    if survived:
        print(*survived, sep="\n")
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        for path, old, new, tests in MUTANTS:
            target = copy / path
            source = target.read_text()
            target.write_text(source.replace(old, new))
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                    cwd=copy,
                    env=env,
                    capture_output=True,
                    text=True,
                    timeout=600,  # a mutant that loops fails the run
                )
            finally:
                target.write_text(source)
            # pytest exits 1 exactly when tests ran and some failed
            verdict = "killed" if proc.returncode == 1 else f"SURVIVED (pytest exit {proc.returncode})"
            print(f"{verdict}: {path}: {old.strip()!r} -> {new.strip()!r} [{' '.join(tests)}]", flush=True)
            if proc.returncode != 1:
                survived.append(path)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
