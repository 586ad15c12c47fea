"""Seeded inputs for the ``analyze`` and ``sequences`` workloads.

The composition of each batch is fixed; the seed picks only the graphs and
sequences inside each stratum. A heavy record (an in-class graph, whose
forbidden-subgraph scan must visit every 5- and 6-subset) costs up to a
few hundred times a random one, so leaving the count or the orders of the
heavy records to chance would make throughput depend on the seed.

Nothing here imports the package: graph6 text is encoded independently,
so the round trip through the program's codec is itself a check.
"""

from __future__ import annotations

import random
from collections import Counter

RANDOM_ORDERS = range(5, 25)
DENSITY_BANDS = tuple((b / 10, (b + 1) / 10) for b in range(1, 8))  # p in [0.1, 0.8)
RANDOM_PER_CELL = 2  # per (order, band): 20 * 7 * 2 = 280 records
THRESHOLD_ORDERS = range(10, 21, 2)  # one in-class threshold graph each: 6 records, 2.1 %

# The reduction's cost depends on length and mean degree, so both are fixed
# per slot; the seed picks the random graphs behind the sequences.
SEQ_LENGTHS = (375, 750, 1500, 3000)  # one graphical sequence per length
SEQ_MEAN_DEGREES = (4, 8, 16, 32)  # by slot of SEQ_LENGTHS
ODD_SUM_LENGTHS = (750, 3000)
OVERFULL_LENGTHS = (1500, 3000)
NONGRAPHICAL_MEAN_DEGREE = 16


def graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 text of a labelled graph on n <= 62 vertices."""
    adjacent = set(edges) | {(v, u) for u, v in edges}
    bits = [1 if (i, j) in adjacent else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k : k + 6])), 2)) for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def _gnp(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(i, j) for j in range(1, n) for i in range(j) if rng.random() < p]


def _threshold(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """The threshold graph whose creation sequence alternates isolated and
    dominating vertices, under shuffled labels. The structure is fixed
    because the full scan's cost depends on it; only the labels are
    seeded."""
    edges = [(u, v) for v in range(1, n, 2) for u in range(v)]
    perm = list(range(n))
    rng.shuffle(perm)
    return [tuple(sorted((perm[u], perm[v]))) for u, v in edges]


def analyze_corpus(seed: int) -> list[dict]:
    """Records {n, edges, g6, kind, band} in a seeded order."""
    rng = random.Random(f"analyze-{seed}")
    records = []
    for n in RANDOM_ORDERS:
        for band, (lo, hi) in enumerate(DENSITY_BANDS):
            for _ in range(RANDOM_PER_CELL):
                edges = _gnp(rng, n, rng.uniform(lo, hi))
                records.append({"n": n, "edges": edges, "kind": "gnp", "band": band})
    for n in THRESHOLD_ORDERS:
        records.append({"n": n, "edges": _threshold(rng, n), "kind": "threshold", "band": None})
    rng.shuffle(records)
    for rec in records:
        rec["g6"] = graph6(rec["n"], rec["edges"])
    return records


def corpus_composition(records: list[dict]) -> dict:
    kinds = Counter(r["kind"] for r in records)
    return {
        "records": len(records),
        "by_order": dict(sorted(Counter(r["n"] for r in records).items())),
        "by_density_band": {
            f"{DENSITY_BANDS[b][0]:.1f}-{DENSITY_BANDS[b][1]:.1f}": c
            for b, c in sorted(Counter(r["band"] for r in records if r["kind"] == "gnp").items())
        },
        "threshold_share": kinds["threshold"] / len(records),
    }


def _random_graph_degrees(rng: random.Random, n: int, avg: int) -> list[int]:
    """Degree sequence of a random graph with n * avg / 2 distinct edges."""
    deg = [0] * n
    seen: set[tuple[int, int]] = set()
    while len(seen) < n * avg // 2:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            deg[u] += 1
            deg[v] += 1
    return deg


def _overfull(rng: random.Random, n: int) -> list[int]:
    """k hubs whose degree exceeds the Erdos-Gallai bound at k by one, over
    a graphical rest; even sum, and the reduction fails only after about k
    steps."""
    k = n // 4 & ~1  # even, so the hubs add an even amount to the sum
    rest = _random_graph_degrees(rng, n - k, NONGRAPHICAL_MEAN_DEGREE)
    slack = sum(min(d, k) for d in rest)
    hub = k + slack // k  # k * hub > k * (k - 1) + slack
    return [hub] * k + rest


def sequence_batch(seed: int) -> list[dict]:
    """Sequences {terms, kind} with shuffled terms; kind is "graphical",
    "odd-sum" or "overfull". The batch order is fixed, because the peak
    memory of a pass depends on which large reductions follow each other."""
    rng = random.Random(f"sequences-{seed}")
    batch = []
    for n, avg in zip(SEQ_LENGTHS, SEQ_MEAN_DEGREES):
        batch.append({"terms": _random_graph_degrees(rng, n, avg), "kind": "graphical"})
    for n in ODD_SUM_LENGTHS:
        odd = _random_graph_degrees(rng, n, NONGRAPHICAL_MEAN_DEGREE)
        odd[rng.randrange(n)] += 1
        batch.append({"terms": odd, "kind": "odd-sum"})
    for n in OVERFULL_LENGTHS:
        batch.append({"terms": _overfull(rng, n), "kind": "overfull"})
    for item in batch:
        rng.shuffle(item["terms"])
    return batch


def batch_composition(batch: list[dict]) -> dict:
    return {
        "sequences": len(batch),
        "by_kind": dict(sorted(Counter(s["kind"] for s in batch).items())),
        "lengths": sorted(len(s["terms"]) for s in batch),
        "terms": sum(len(s["terms"]) for s in batch),
    }
