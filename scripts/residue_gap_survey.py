#!/usr/bin/env python3
"""Survey the gap alpha - residue over all small graphs.

The residue never exceeds the independence number, and equality holds on
every strong Havel-Hakimi graph; this script tabulates how tight the bound
is elsewhere, per order: the distribution of the gap, and how many graphs
attain equality inside vs outside the class (the class is sufficient for
equality, not necessary).

Usage: python scripts/residue_gap_survey.py [--max-n 7] [--examples 3]
"""

import argparse
import os
import sys
from collections import Counter
from itertools import groupby

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hhresidue.graphs import check_order  # noqa: E402
from hhresidue.harness import records_up_to  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=7)
    parser.add_argument("--examples", type=int, default=3,
                        help="out-of-class equality examples to print per order")
    args = parser.parse_args()
    try:
        check_order("enumeration", args.max_n, lo=1)
    except ValueError as exc:
        parser.error(str(exc))
    if args.examples < 0:
        parser.error("--examples must be nonnegative")

    print(f"{'n':>2} {'graphs':>7} {'in-class':>9} {'R=alpha':>8} "
          f"{'R=alpha outside':>16}  gap distribution")
    records = records_up_to(args.max_n)
    for n, group in groupby(records, key=lambda rec: rec.graph.n):
        gaps = Counter()
        in_class = equal = equal_outside = 0
        samples = []
        for rec in group:
            r, alpha = rec.residue, rec.alpha
            gaps[alpha - r] += 1
            member = rec.witness is None
            in_class += member
            if r == alpha:
                equal += 1
                if not member:
                    equal_outside += 1
                    if len(samples) < args.examples:
                        samples.append(rec.graph6)
        dist = " ".join(f"{gap}:{count}" for gap, count in sorted(gaps.items()))
        print(f"{n:>2} {sum(gaps.values()):>7} {in_class:>9} {equal:>8} "
              f"{equal_outside:>16}  {dist}")
        if samples:
            print(f"   e.g. {' '.join(samples)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
