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

import numpy as np

MASS_TOL = 1e-12  # tolerance for probability-mass bookkeeping
CDF_TOL = 1e-12  # slack for CDF comparisons at checkpoints


@dataclass(frozen=True)
class ValueDist:
    """Atoms of a discrete distribution: strictly increasing support, positive masses.

    Derived once, when the object is built: the read-only array _support
    holds the support, the read-only array _below[k] is the mass of the k
    lowest atoms, summed left to right, and _above[k] is the mass of atom k
    and every atom above it, summed top down. Quantiles and revenue-curve
    breakpoints must agree bitwise, so every quantile in the package is
    read from _above, whose full-mass entry _above[0] is snapped to exactly
    1. A lowest atom whose mass is lost when the others are summed would get
    quantile 1 twice, so such a distribution is rejected.
    """

    support: tuple[float, ...]
    probs: tuple[float, ...]
    _support: np.ndarray = field(init=False, repr=False, compare=False)
    _below: np.ndarray = field(init=False, repr=False, compare=False)
    _above: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        above = list(accumulate(reversed(self.probs), initial=0.0))[::-1]
        if len(above) > 2 and above[1] >= 1.0:
            raise ValueError(
                f"the atoms above {self.support[0]!r} already carry mass {above[1]!r}, "
                f"so its mass {self.probs[0]!r} is lost"
            )
        above[0] = 1.0
        support = np.array(self.support, dtype=float)
        below = np.fromiter(accumulate(self.probs, initial=0.0), float, len(self.probs) + 1)
        for name, arr in (("_support", support), ("_below", below)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
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

    Duplicate values are merged, zero-mass atoms dropped and the support
    sorted ascending: a stable sort and an in-order bincount add the masses
    of equal values left to right, and the first of them (0.0 or -0.0) is
    kept. Masses must be finite, nonnegative and sum to 1 within MASS_TOL;
    values must lie in [0, 1], which rules out NaN.
    """
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if values.ndim != 1 or values.shape != probs.shape:
        raise ValueError(
            f"values {values.shape} and probabilities {probs.shape}: need flat lists of one length"
        )
    total = sum(probs.tolist())
    if not abs(total - 1.0) <= MASS_TOL:  # also catches a NaN or infinite mass
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    bad = (probs < -MASS_TOL) | ~((values >= 0.0) & (values <= 1.0))
    if bad.any():  # the first bad atom, its mass checked before its value
        v, p = float(values[bad][0]), float(probs[bad][0])
        msg = f"negative probability {p!r}" if p < -MASS_TOL else f"value {v!r} outside [0, 1]"
        raise ValueError(msg)
    order = values.argsort(kind="stable")
    values, probs = values[order], probs[order]
    first = np.concatenate(([True], values[1:] != values[:-1]))
    masses = np.bincount(first.cumsum() - 1, weights=probs)
    keep = masses > 0.0
    support = tuple(values[first][keep].tolist())
    if not support:
        raise ValueError("no atoms with positive probability")
    return ValueDist(support, tuple(masses[keep].tolist()))


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
    values = [(j + 0.5) * step for j in range(cells)]
    return make_discrete(values + [atom_value], [(1.0 - atom_mass) / cells] * cells + [atom_mass])


def _rank(support, v: float, bisect=bisect_right) -> int:
    """Position of v in a sorted support; NaN, which no order places, raises ValueError."""
    if v != v:
        raise ValueError("value is NaN")
    return bisect(support, v)


def cdf(d: ValueDist, v: float) -> float:
    """Pr[u <= v] for u drawn from d."""
    return float(d._below[_rank(d.support, v)])


def cdf_left(d: ValueDist, v: float) -> float:
    """Left limit Pr[u < v]."""
    return float(d._below[_rank(d.support, v, bisect_left)])


def quantile_of_value(d: ValueDist, v: float) -> float:
    """Pr[u > v], the quantile of value v; nonincreasing in v."""
    return d._above[_rank(d.support, v)]


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


def _cdf_pairs(a: ProductDist, b: ProductDist) -> tuple[np.ndarray, np.ndarray]:
    """cdf(a_i, v) and cdf(b_i, v) at every support point v of a_i or b_i, coordinate by coordinate.

    Both CDFs are constant between these points and 0 below the lowest, so
    every gap between them shows at one of them: a left limit repeats the
    pair at the previous point. A point in both supports appears twice.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    fa, fb = [], []
    for ai, bi in zip(a, b):
        sa, sb = ai._support, bi._support
        fa += [ai._below[1:], ai._below[np.searchsorted(sa, sb, "right")]]
        fb += [bi._below[np.searchsorted(sb, sa, "right")], bi._below[1:]]
    return np.concatenate(fa), np.concatenate(fb)


def _min_variance(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """The smaller Bernoulli variance F(1 - F) of the two CDFs, floored at 0."""
    return np.maximum(0.0, np.minimum(fa * (1.0 - fa), fb * (1.0 - fb)))


def dominates(big: ProductDist, small: ProductDist) -> bool:
    """First-order stochastic dominance: big's CDF pointwise below small's."""
    fb, fs = _cdf_pairs(big, small)
    return not np.any(fb > fs + CDF_TOL)


def _check_close_args(eps: float, n: float, k: float):
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps {eps!r} outside (0, 1]")
    if not (n >= 1 and k >= 1):
        raise ValueError(f"n and k must be at least 1, got n={n!r} k={k!r}")


def is_close(a: ProductDist, b: ProductDist, eps: float, n: int, k: float) -> bool:
    """Variance-sensitive closeness of per-bidder CDFs.

    At every checkpoint the gap must stay within
    sqrt(min-variance * eps^2 / (4nk)) + eps^2 / (2nk).
    """
    _check_close_args(eps, n, k)
    fa, fb = _cdf_pairs(a, b)
    bound = np.sqrt(_min_variance(fa, fb) * eps * eps / (4.0 * n * k)) + eps * eps / (2.0 * n * k)
    return not np.any(np.abs(fa - fb) > bound + CDF_TOL)


def is_close_uniform(a: ProductDist, b: ProductDist, eps: float, n: int, k: float) -> bool:
    """Uniform closeness: every CDF gap at most eps / sqrt(nk)."""
    _check_close_args(eps, n, k)
    fa, fb = _cdf_pairs(a, b)
    return not np.any(np.abs(fa - fb) > eps / sqrt(n * k) + CDF_TOL)


def min_closeness_eps(a: ProductDist, b: ProductDist, n: int, k: float) -> float:
    """Smallest eps at which is_close(a, b, eps, n, k) holds.

    Solved per checkpoint from the closed-form bound (a quadratic in eps)
    and maximized; may exceed 1, in which case no valid eps exists.
    """
    fa, fb = _cdf_pairs(a, b)
    gap = np.abs(fa - fb)
    far = gap > CDF_TOL
    qa = 1.0 / (2.0 * n * k)
    qb = np.sqrt(_min_variance(fa[far], fb[far]) / (4.0 * n * k))
    eps_pts = (-qb + np.sqrt(qb * qb + 4.0 * qa * gap[far])) / (2.0 * qa)
    return float(eps_pts.max(initial=0.0))


def min_uniform_closeness_eps(a: ProductDist, b: ProductDist, n: int, k: float) -> float:
    """Smallest eps at which is_close_uniform(a, b, eps, n, k) holds."""
    fa, fb = _cdf_pairs(a, b)
    return float(np.abs(fa - fb).max(initial=0.0)) * sqrt(n * k)
