"""Finite value distributions on [0, 1].

A distribution is a finite list of atoms. CDFs are right-continuous step
functions, so suprema over values are attained at support points; the
predicates below evaluate only there and stay exact.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from math import sqrt

MASS_TOL = 1e-12  # tolerance for probability-mass bookkeeping
CDF_TOL = 1e-12  # slack for CDF comparisons at checkpoints


@dataclass(frozen=True)
class ValueDist:
    """Atoms of a discrete distribution: strictly increasing support, positive masses.

    Two running sums are derived once, when the object is built:
    _below[k] is the mass of the k lowest atoms, summed left to right, and
    _above[k] is the mass of atom k and every atom above it, summed top
    down. Quantiles and revenue-curve breakpoints must agree bitwise, so
    every quantile in the package is read from _above, whose full-mass
    entry _above[0] is snapped to exactly 1. A lowest atom whose mass is
    lost when the others are summed would get quantile 1 twice, so such a
    distribution is rejected.
    """

    support: tuple[float, ...]
    probs: tuple[float, ...]
    _below: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _above: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        above = list(accumulate(reversed(self.probs), initial=0.0))[::-1]
        if len(above) > 2 and above[1] >= 1.0:
            raise ValueError(
                f"the atoms above {self.support[0]!r} already carry mass {above[1]!r}, "
                f"so its mass {self.probs[0]!r} is lost"
            )
        above[0] = 1.0
        object.__setattr__(self, "_below", tuple(accumulate(self.probs, initial=0.0)))
        object.__setattr__(self, "_above", tuple(above))

    def to_json(self) -> dict:
        return {"support": list(self.support), "probs": list(self.probs)}

    @staticmethod
    def from_json(obj: dict) -> "ValueDist":
        try:
            return make_discrete(obj["support"], obj["probs"])
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"a value distribution is an object with 'support' and 'probs' lists ({exc})"
            ) from exc


@dataclass(frozen=True)
class ProductDist:
    """Independent per-bidder value distributions."""

    dists: tuple[ValueDist, ...]

    def __post_init__(self):
        if len(self.dists) < 1:
            raise ValueError("a product distribution needs at least one coordinate")

    @property
    def n(self) -> int:
        return len(self.dists)

    def __iter__(self):
        return iter(self.dists)

    def __getitem__(self, i: int) -> ValueDist:
        return self.dists[i]

    def __len__(self) -> int:
        return len(self.dists)

    def to_json(self) -> list:
        return [d.to_json() for d in self.dists]

    @staticmethod
    def from_json(obj: list) -> "ProductDist":
        if not isinstance(obj, list):
            raise ValueError("a product distribution is a list of value distributions")
        return ProductDist(tuple(ValueDist.from_json(o) for o in obj))


def product_dist(*dists: ValueDist) -> ProductDist:
    return ProductDist(tuple(dists))


def make_discrete(values, probs) -> ValueDist:
    """Build a ValueDist from raw atoms.

    Duplicate values are merged (masses added), zero-mass atoms dropped and
    the support sorted ascending. Masses must be finite, nonnegative and sum
    to 1 within MASS_TOL; values must lie in [0, 1], which rules out NaN.
    """
    values = [float(v) for v in values]
    probs = [float(p) for p in probs]
    if len(values) != len(probs):
        raise ValueError(f"{len(values)} values but {len(probs)} probabilities")
    total = sum(probs)
    if not abs(total - 1.0) <= MASS_TOL:  # also catches a NaN or infinite mass
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    merged: dict[float, float] = {}
    for v, p in zip(values, probs):
        if p < -MASS_TOL:
            raise ValueError(f"negative probability {p!r}")
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"value {v!r} outside [0, 1]")
        merged[v] = merged.get(v, 0.0) + p
    atoms = [(v, p) for v, p in sorted(merged.items()) if p > 0.0]
    if not atoms:
        raise ValueError("no atoms with positive probability")
    support, probs = zip(*atoms)
    return ValueDist(support, probs)


def point_mass(v: float) -> ValueDist:
    return make_discrete([v], [1.0])


def uniform_grid(values) -> ValueDist:
    """Uniform distribution over the given values."""
    values = list(values)
    return make_discrete(values, [1.0 / len(values)] * len(values))


def discretize_uniform_with_atom(
    atom_value: float, atom_mass: float, step: float
) -> ValueDist:
    """Discretize a unit-interval density with one extra atom.

    The continuous part (total mass 1 - atom_mass, uniform on [0, 1]) is
    binned at the given step and each bin is represented by its midpoint;
    the atom keeps its exact value.
    """
    cells = round(1.0 / step)
    cell_mass = (1.0 - atom_mass) / cells
    values = [(j + 0.5) * step for j in range(cells)]
    probs = [cell_mass] * cells
    values.append(atom_value)
    probs.append(atom_mass)
    return make_discrete(values, probs)


def cdf(d: ValueDist, v: float) -> float:
    """Pr[u <= v] for u drawn from d."""
    return d._below[bisect_right(d.support, v)]


def cdf_left(d: ValueDist, v: float) -> float:
    """Left limit Pr[u < v]."""
    return d._below[bisect_left(d.support, v)]


def quantile_of_value(d: ValueDist, v: float) -> float:
    """Pr[u > v], the quantile of value v; nonincreasing in v."""
    return d._above[bisect_right(d.support, v)]


def value_of_quantile(d: ValueDist, q: float) -> float:
    """Smallest value whose quantile is at most q.

    Evaluates to a support value, or to 0 at q = 1 where the infimum runs
    over the whole half-line.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q!r} outside [0, 1]")
    if q >= 1.0:
        return 0.0
    for v, tail in zip(d.support, d._above[1:]):
        if tail <= q + MASS_TOL:
            return v
    return 0.0  # unreachable: the final tail is 0 <= q


def scale_values(d: ValueDist, factor: float) -> ValueDist:
    """Multiply every support value by factor in (0, 1]; masses unchanged."""
    if not 0.0 < factor <= 1.0:
        raise ValueError(f"scale factor {factor!r} outside (0, 1]")
    return make_discrete([v * factor for v in d.support], d.probs)


def _cdf_pairs(a: ProductDist, b: ProductDist) -> list[tuple[float, float]]:
    """(cdf(a_i, v), cdf(b_i, v)) at every point v of each coordinate's merged support.

    Both CDFs are constant between merged points and 0 below the lowest, so
    every gap between them shows at one of these points: a left limit
    repeats the pair at the previous point.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    pairs = []
    for ai, bi in zip(a, b):
        sa, sb = ai.support, bi.support
        i = j = 0
        while i < len(sa) or j < len(sb):
            if j == len(sb) or (i < len(sa) and sa[i] < sb[j]):
                i += 1
            elif i == len(sa) or sb[j] < sa[i]:
                j += 1
            else:
                i += 1
                j += 1
            pairs.append((ai._below[i], bi._below[j]))
    return pairs


def dominates(big: ProductDist, small: ProductDist) -> bool:
    """First-order stochastic dominance: big's CDF pointwise below small's."""
    return not any(fb > fs + CDF_TOL for fb, fs in _cdf_pairs(big, small))


def _check_close_args(eps: float, n: float, k: float):
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps {eps!r} outside (0, 1]")
    if n < 1 or k < 1:
        raise ValueError(f"n and k must be at least 1, got n={n!r} k={k!r}")


def is_close(a: ProductDist, b: ProductDist, eps: float, n: int, k: float) -> bool:
    """Variance-sensitive closeness of per-bidder CDFs.

    At every checkpoint the gap must stay within
    sqrt(min-variance * eps^2 / (4nk)) + eps^2 / (2nk).
    """
    _check_close_args(eps, n, k)
    for fa, fb in _cdf_pairs(a, b):
        var = max(0.0, min(fa * (1.0 - fa), fb * (1.0 - fb)))
        bound = sqrt(var * eps * eps / (4.0 * n * k)) + eps * eps / (2.0 * n * k)
        if abs(fa - fb) > bound + CDF_TOL:
            return False
    return True


def is_close_uniform(a: ProductDist, b: ProductDist, eps: float, n: int, k: float) -> bool:
    """Uniform closeness: every CDF gap at most eps / sqrt(nk)."""
    _check_close_args(eps, n, k)
    bound = eps / sqrt(n * k)
    return not any(abs(fa - fb) > bound + CDF_TOL for fa, fb in _cdf_pairs(a, b))


def min_closeness_eps(a: ProductDist, b: ProductDist, n: int, k: float) -> float:
    """Smallest eps at which is_close(a, b, eps, n, k) holds.

    Solved per checkpoint from the closed-form bound (a quadratic in eps)
    and maximized; may exceed 1, in which case no valid eps exists.
    """
    worst = 0.0
    qa = 1.0 / (2.0 * n * k)
    for fa, fb in _cdf_pairs(a, b):
        gap = abs(fa - fb)
        if gap <= CDF_TOL:
            continue
        var = max(0.0, min(fa * (1.0 - fa), fb * (1.0 - fb)))
        qb = sqrt(var / (4.0 * n * k))
        eps_pt = (-qb + sqrt(qb * qb + 4.0 * qa * gap)) / (2.0 * qa)
        worst = max(worst, eps_pt)
    return worst


def min_uniform_closeness_eps(a: ProductDist, b: ProductDist, n: int, k: float) -> float:
    """Smallest eps at which is_close_uniform(a, b, eps, n, k) holds."""
    worst = max((abs(fa - fb) for fa, fb in _cdf_pairs(a, b)), default=0.0)
    return worst * sqrt(n * k)
