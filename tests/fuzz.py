"""Seeded random instances for the fuzz suites, and two prior builders the suites share.

The draws are fixed: a given generator state always yields the same
distributions and systems, so the acceptance checks see the same
instances from run to run.
"""

from itertools import combinations

import numpy as np

from myersonlab.dist import ProductDist, ValueDist, make_discrete, point_mass
from myersonlab.feasible import (
    FeasibleSet,
    all_or_nothing,
    from_independent_sets,
    members,
    minimum_non_matroid,
    uniform_matroid,
)

GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def uniform_grid(values) -> ValueDist:
    """Uniform distribution over the given values."""
    values = list(values)
    return make_discrete(values, [1.0 / len(values)] * len(values))


def scale_values(d: ValueDist, factor: float) -> ValueDist:
    """Multiply every support value by factor in (0, 1]; masses unchanged."""
    if not 0.0 < factor <= 1.0:
        raise ValueError(f"scale factor {factor!r} outside (0, 1]")
    return make_discrete([v * factor for v in d.support], d.probs)


def random_value_dist(rng: np.random.Generator, max_atoms: int = 4, grid=GRID) -> ValueDist:
    m = int(rng.integers(1, max_atoms + 1))
    support = [grid[i] for i in rng.choice(len(grid), size=m, replace=False)]
    weights = rng.integers(1, 10, size=m).astype(float)
    return make_discrete(support, weights / weights.sum())


def random_product(rng: np.random.Generator, n: int, max_atoms: int = 4) -> ProductDist:
    return ProductDist(tuple(random_value_dist(rng, max_atoms) for _ in range(n)))


def shift_down(
    rng: np.random.Generator, d: ValueDist, strength: float = 0.3, grid=GRID
) -> ValueDist:
    """Dominated copy of d: random mass fractions move to lower grid values."""
    masses: dict[float, float] = {}
    for v, p in zip(d.support, d.probs):
        lower = [g for g in grid if g < v]
        if lower and rng.random() < 0.8:
            frac = strength * rng.random()
            dest = lower[int(rng.integers(0, len(lower)))]
            masses[dest] = masses.get(dest, 0.0) + p * frac
            masses[v] = masses.get(v, 0.0) + p * (1.0 - frac)
        else:
            masses[v] = masses.get(v, 0.0) + p
    return make_discrete(list(masses), list(masses.values()))


def dominated_pair(
    rng: np.random.Generator, n: int, strength: float = 0.3
) -> tuple[ProductDist, ProductDist]:
    big = random_product(rng, n)
    small = ProductDist(tuple(shift_down(rng, dj, strength) for dj in big))
    return big, small


def gadget_pairs(n, eps=0.1):
    """(dominating, design) priors shaped as embed builds them, on every triple (A, {B, C})."""
    scale = 1.0 / n
    bc_tilde = make_discrete([eps * scale, scale], [1.0 - eps, eps])
    outsider = make_discrete([0.0, 0.1 * eps * scale], [0.99, 0.01])
    pairs = []
    for a_bidder in range(n):
        for b, c in combinations([i for i in range(n) if i != a_bidder], 2):
            big, design = [outsider] * n, [outsider] * n
            big[a_bidder] = design[a_bidder] = point_mass(0.5 * scale)
            big[b] = big[c] = point_mass(scale)
            design[b] = design[c] = bc_tilde
            pairs.append((ProductDist(tuple(big)), ProductDist(tuple(design))))
    return pairs


def random_feasible(
    rng: np.random.Generator, n: int, families=("uniform", "minnon", "aon")
) -> FeasibleSet:
    options = []
    if "uniform" in families:
        options.append("uniform")
    if "minnon" in families and n == 3:
        options.append("minnon")
    if "aon" in families:
        options.append("aon")
    pick = options[int(rng.integers(0, len(options)))]
    if pick == "uniform":
        return uniform_matroid(n, int(rng.integers(1, n + 1)))
    if pick == "minnon":
        return minimum_non_matroid()
    return all_or_nothing(n, int(rng.integers(1, n + 1)))


def random_downward_closed(rng: np.random.Generator, n: int) -> FeasibleSet:
    """Downward closure of one to three random bidder subsets; always holds the empty set."""
    sets = set()
    for _ in range(int(rng.integers(1, 4))):
        top = [i for i in range(n) if rng.random() < 0.6]
        sets.update(c for r in range(len(top) + 1) for c in combinations(top, r))
    return from_independent_sets(n, sets)


def downward_closed_families(n):
    """Every family of subsets of range(n), as bitmasks, that is closed under removal.

    The empty family comes first; every other family holds the empty set.
    """
    subsets = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))

    def grow(i, family):
        if i == len(subsets):
            yield family
            return
        yield from grow(i + 1, family)
        s = subsets[i]
        if all(s & ~(1 << j) in family for j in members(s)):
            yield from grow(i + 1, family | {s})

    return grow(0, frozenset())
