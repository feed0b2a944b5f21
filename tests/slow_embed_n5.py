"""Run embed on every downward-closed non-matroid on five bidders.

A slow check kept out of the tier-1 suite, which collects only test_*.py:

    PYTHONPATH=src python tests/slow_embed_n5.py

It enumerates all 7,581 downward-closed families of subsets of five
bidders (the empty family included), drops the empty family and the
matroids, and runs embed_counterexample on each remaining system. Every
one must pass with a positive revenue gap. Prints the counts and the
smallest gap, and exits 1 if any system fails.
"""

import sys
import time

from myersonlab.feasible import _exchange_violation, from_independent_sets, masks, members
from myersonlab.lab import embed_counterexample

from fuzz import downward_closed_families

BIDDERS = 5
FAMILIES = 7581


def main() -> int:
    start = time.perf_counter()
    families = list(downward_closed_families(BIDDERS))
    assert len(families) == FAMILIES, len(families)
    systems = [from_independent_sets(BIDDERS, [members(m) for m in fam]) for fam in families if fam]
    # each family is downward closed and holds the empty set, so exchange decides
    non_matroids = [fs for fs in systems if _exchange_violation(fs) is not None]
    failures, worst = [], None
    for fs in non_matroids:
        report = embed_counterexample(fs)
        gap = report.metrics["gap"]
        worst = gap if worst is None else min(worst, gap)
        if not (report.passed and gap > 0.0):
            failures.append([sorted(members(m)) for m in masks(fs.vertices)])
    print(
        f"{len(families)} families, {len(non_matroids)} non-matroids, "
        f"{len(non_matroids) - len(failures)} pass, {len(failures)} fail, "
        f"smallest gap {worst!r}, {time.perf_counter() - start:.1f} s"
    )
    for sets in failures[:10]:
        print("failed:", list(sets))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
