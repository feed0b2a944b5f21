"""Check the matroid half of revenue monotonicity on every matroid on five bidders.

A slow check kept out of the tier-1 suite, which collects only test_*.py:

    PYTHONPATH=src python tests/slow_matroids_n5.py

It enumerates all 7,581 downward-closed families of subsets of five
bidders, keeps the 406 matroids, and gives each 3 random dominated pairs
and the embed-shaped gadget pairs on every triple of bidders. The
design-prior auction must lose no revenue on the dominating prior, up to
1e-9. Prints the counts, the worst drop and the time, and exits 1 if any
pair drops further.
"""

import sys
import time

import numpy as np

from myersonlab.auction import expected_revenue, myerson
from myersonlab.feasible import _exchange_violation, from_independent_sets, masks, members

from fuzz import dominated_pair, downward_closed_families, gadget_pairs

BIDDERS = 5
MATROIDS = 406
RANDOM_PAIRS = 3


def main() -> int:
    start = time.perf_counter()
    families = [fam for fam in downward_closed_families(BIDDERS) if fam]
    systems = [from_independent_sets(BIDDERS, [members(m) for m in fam]) for fam in families]
    # each family is downward closed and holds the empty set, so exchange decides
    matroids = [fs for fs in systems if _exchange_violation(fs) is None]
    assert len(matroids) == MATROIDS, len(matroids)
    rng = np.random.default_rng(BIDDERS)
    gadgets = gadget_pairs(BIDDERS)
    pairs, failures, worst = 0, [], None
    for fs in matroids:
        for big, design in [dominated_pair(rng, BIDDERS) for _ in range(RANDOM_PAIRS)] + gadgets:
            a = myerson(design, fs)
            drop = expected_revenue(a, big) - expected_revenue(a, design)
            worst = drop if worst is None else min(worst, drop)
            pairs += 1
            if drop < -1e-9:
                failures.append([sorted(members(m)) for m in masks(fs.vertices)])
    print(
        f"{len(matroids)} matroids, {pairs} pairs, {pairs - len(failures)} pass, "
        f"{len(failures)} fail, worst drop {worst!r}, {time.perf_counter() - start:.1f} s"
    )
    for sets in failures[:10]:
        print("failed:", sets)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
