"""Output checks, run outside the timed region.

The references share no code with the timed path: the degree-sequence
reduction and Erdos-Gallai test are written here; exact alpha comes from
the package's exhaustive bitmask sweep (the timed path uses branch and
bound) and from networkx; class membership from the package's
definitional subset sweep (the timed path scans for forbidden subgraphs);
threshold graphs from networkx. Each checker returns a list of problems,
empty when the output is right.
"""

from __future__ import annotations

try:
    import networkx as nx
    from networkx.algorithms.threshold import is_threshold_graph
except ImportError:  # the networkx routes are skipped, and the run says so
    nx = None

# Documented scale caps of `hhresidue analyze` (README, "Command line").
ALPHA_MAX_N = 24
BRANCH_MAX_N = 9
CLASS_SCAN_MAX_N = 20
BITMASK_MAX_N = 20
DEFINITIONAL_MAX_N = 12
SKIPPED = "skipped: scale"

# Isomorphism classes of graphs on 1..7 vertices (OEIS A000088).
CLASS_COUNTS = (1, 2, 4, 11, 34, 156, 1044)


def networkx_version() -> str:
    return nx.__version__ if nx is not None else "absent"


def residue_ref(terms: list[int]) -> int | None:
    """Havel-Hakimi residue by a degree-histogram reduction, or None when
    the sequence is not graphical."""
    n = len(terms)
    if n == 0:
        return 0
    if min(terms) < 0 or max(terms) > n - 1:
        return None
    count = [0] * n
    for t in terms:
        count[t] += 1
    top, remaining = max(terms), n
    while top > 0:
        count[top] -= 1
        remaining -= 1
        need = top
        if need > remaining:
            return None
        moves, level = [], top
        while need:
            while not count[level]:
                level -= 1
            take = min(count[level], need)
            moves.append((level, take))
            need -= take
            level -= 1
        for level, take in moves:
            if level == 0:
                return None  # a zero term would go negative
            count[level] -= take
            count[level - 1] += take
        while top > 0 and not count[top]:
            top -= 1
    return count[0]


def erdos_gallai(terms: list[int]) -> bool:
    """Graphicality by the Erdos-Gallai inequalities, O(n log n)."""
    d = sorted(terms, reverse=True)
    n = len(d)
    if any(t < 0 for t in d) or sum(d) % 2:
        return False
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + d[i]
    prefix, q = 0, n  # q: first index whose term is below k
    for k in range(1, n + 1):
        prefix += d[k - 1]
        while q > 0 and d[q - 1] < k:
            q -= 1
        p = max(q, k)
        if prefix > k * (k - 1) + k * (p - k) + suffix[p]:
            return False
    return True


def check_sequence(item: dict, got) -> list[str]:
    """``got`` is residue(terms) for a graphical item, is_graphical(terms)
    otherwise."""
    want = residue_ref(item["terms"])
    graphical = erdos_gallai(item["terms"])
    if (want is not None) != graphical:
        return [f"references disagree on a {item['kind']} sequence"]
    if item["kind"] == "graphical":
        return [] if want is not None and got == want else [f"residue {got!r}, expected {want}"]
    return [] if got is False and not graphical else [f"is_graphical {got!r}, expected False"]


def expected_reports() -> dict[str, tuple[int, int]]:
    """check id -> (n_max, graphs_checked) at the default caps."""
    upto7, upto6 = sum(CLASS_COUNTS), sum(CLASS_COUNTS[:6])
    return {
        "forb-equivalence": (7, upto7),
        "minimal-forbidden": (6, upto6),
        "residue-bounds": (7, upto7),
        "r-equals-alpha-S": (7, upto7),
        "lemma-c4-p5": (7, upto7 - 7),  # the edgeless graph of each order is skipped
        "class-chain": (7, upto7),
    }


def check_report(cid: str, code, report: dict | None) -> list[str]:
    n_max, checked = expected_reports()[cid]
    if code != 0:
        return [f"{cid}: exit code {code!r}"]
    if report is None:
        return [f"{cid}: no report written"]
    want = {"theorem_id": cid, "n_max": n_max, "graphs_checked": checked, "passed": True, "violations": []}
    return [f"{cid}: {k}={report.get(k)!r}, expected {v!r}" for k, v in want.items() if report.get(k) != v]


class RecordReference:
    """Expected fields of one `analyze` record, computed once per graph."""

    def __init__(self, rec: dict, line: int):
        from hhresidue import Graph, independence_number_bitmask, is_strong_havel_hakimi_definitional

        n, edges = rec["n"], rec["edges"]
        degrees = [0] * n
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        self.line, self.n, self.g6, self.kind = line, n, rec["g6"], rec["kind"]
        self.degree_sequence = sorted(degrees, reverse=True)
        self.residue = residue_ref(degrees)
        g = Graph(n, edges)
        self.alpha_bitmask = independence_number_bitmask(g) if n <= BITMASK_MAX_N else None
        self.in_s = is_strong_havel_hakimi_definitional(g) if n <= DEFINITIONAL_MAX_N else None
        self.alpha_nx = self.threshold = None
        if nx is not None:
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(edges)
            self.alpha_nx = nx.max_weight_clique(nx.complement(h), weight=None)[1]
            self.threshold = is_threshold_graph(h)

    def check(self, out: dict) -> list[str]:
        problems = []

        def expect(field, want):
            if out.get(field) != want:
                problems.append(f"line {self.line} {field}={out.get(field)!r}, expected {want!r}")

        expect("line", self.line)
        expect("graph6", self.g6)
        expect("n", self.n)
        expect("degree_sequence", self.degree_sequence)
        expect("residue", self.residue)
        n = self.n
        if n > ALPHA_MAX_N:
            expect("alpha", SKIPPED)
        else:
            for want in (self.alpha_bitmask, self.alpha_nx):
                if want is not None:
                    expect("alpha", want)
        if n > BRANCH_MAX_N:
            expect("maxine_min", SKIPPED)
            expect("maxine_max", SKIPPED)
        else:
            lo, hi, alpha = out.get("maxine_min"), out.get("maxine_max"), out.get("alpha")
            if not all(isinstance(x, int) for x in (lo, hi, alpha)) or not (
                self.residue <= lo <= hi <= alpha
            ):
                problems.append(f"line {self.line} Maxine sizes {lo!r}..{hi!r} outside residue..alpha")
        if n > CLASS_SCAN_MAX_N:
            for field in ("in_s", "matrogenic_config_free", "threshold"):
                expect(field, SKIPPED)
        else:
            if self.in_s is not None:
                expect("in_s", self.in_s)
            if self.kind == "threshold":
                expect("in_s", True)
            if self.threshold is not None:
                expect("threshold", self.threshold)
            if (out.get("witness") is None) != (out.get("in_s") is True):
                problems.append(f"line {self.line} witness {out.get('witness')!r} with in_s={out.get('in_s')!r}")
        return problems
