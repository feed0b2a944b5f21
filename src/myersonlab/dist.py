"""Finite value distributions on [0, 1], their revenue curves, and ironing.

A distribution is a finite list of atoms. CDFs are right-continuous step
functions, so suprema over values are attained at support points; the
predicates below evaluate only there and stay exact. The revenue curve of
a distribution is piecewise linear in quantile space with one breakpoint
per atom; ironing replaces it by its upper concave envelope, the hull, and
the ironed virtual value of a value v is the hull's right derivative at
the quantile of v. A distribution keeps its atoms as read-only arrays,
and derives its running sums, its hull and each atom's ironed virtual
value once, when it is built, as read-only arrays too, so nothing irons
it again. There are three derivations, and all three give the same bits:
- the constructor up to _GATE atoms runs in Python and wraps its results
  in arrays; every single prior of at most _GATE atoms takes it, as built
  by make_discrete, from JSON or by point_mass;
- the constructor past _GATE atoms runs on arrays end to end (_iron);
- the block fill (_derive) takes a trial loop's rows, of any width, at
  once, in array passes, every row's hull included; the loops read each
  row's run starts off it (_runs) and build no prior. dominated_empirical's
  rows take the constructor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from math import sqrt
from typing import NamedTuple

import numpy as np

MASS_TOL = 1e-12  # tolerance for probability-mass bookkeeping
CDF_TOL = 1e-12  # slack for CDF comparisons at checkpoints


@dataclass(frozen=True, eq=False)
class ValueDist:
    """Atoms of a discrete distribution: strictly increasing support, positive masses.

    The support lies in [0, 1] and the masses sum to 1 within MASS_TOL;
    anything else is rejected. support and probs may be given as sequences
    or arrays; each is copied into a read-only float array of shape (m,),
    the only copy kept. A distribution compares and hashes by identity.
    Derived once, when the object is built, as read-only arrays: _below[k]
    (float, m + 1) is the mass of the k lowest atoms, summed left to right,
    _above[k] (float, m + 1) is the mass of atom k and every atom above it,
    summed top down, _hull (float, (h, 2)) holds the breakpoints (q, r) of
    the ironed revenue curve, _slopes[k] (float, m) is atom k's ironed
    virtual value, and _runs (intp) holds the index of the first atom of
    each run of adjacent atoms with equal _slopes, such as the atoms of one
    ironed interval. Quantiles and revenue-curve breakpoints must agree
    bitwise, so every quantile in the package is read from _above, whose
    full-mass entry _above[0] is snapped to exactly 1. A lowest atom whose
    mass is lost when the others are summed would get quantile 1 twice, so
    such a distribution is rejected.
    """

    support: np.ndarray
    probs: np.ndarray
    _below: np.ndarray = field(init=False, repr=False)
    _above: np.ndarray = field(init=False, repr=False)
    _hull: np.ndarray = field(init=False, repr=False)
    _slopes: np.ndarray = field(init=False, repr=False)
    _runs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        probs, support = np.array(self.probs, dtype=float), np.array(self.support, dtype=float)
        if support.ndim != 1 or probs.ndim != 1:
            raise ValueError(f"support and probs must be flat, not {support.shape} and {probs.shape}")
        if len(support) != len(probs):
            raise ValueError(f"{len(support)} values but {len(probs)} probabilities")
        long = len(probs) > _GATE
        if long:  # cumsum adds left to right, as accumulate does
            below = np.cumsum(np.append(0.0, probs))
            above = np.cumsum(np.append(0.0, probs[::-1]))[::-1]
            values, rising = support, (support[1:] > support[:-1]).all()  # False at a NaN
        else:
            masses, values = probs.tolist(), support.tolist()
            below = list(accumulate(masses, initial=0.0))
            above = list(accumulate(reversed(masses), initial=0.0))[::-1]
            rising = all(map(float.__lt__, values, values[1:]))  # False at a NaN too
        total = float(below[-1])
        if not abs(total - 1.0) <= MASS_TOL:  # also catches a NaN or infinite mass
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        if not (probs.min() if long else min(masses)) > 0.0:
            raise ValueError(f"nonpositive probability {min(probs.tolist())!r}")
        if not (0.0 <= values[0] and values[-1] <= 1.0 and rising):
            raise ValueError("support values must lie in [0, 1] and increase strictly")
        if len(above) > 2 and above[1] >= 1.0:
            raise ValueError(
                f"the atoms above {float(support[0])!r} already carry mass {float(above[1])!r}, "
                f"so its mass {float(probs[0])!r} is lost"
            )
        above[0] = 1.0
        hull, slopes, runs = _iron(values, above)
        below, above = np.asarray(below, dtype=float), np.asarray(above, dtype=float)
        for name, arr in (("support", support), ("probs", probs), ("_below", below),
                          ("_above", above), ("_hull", hull), ("_slopes", slopes), ("_runs", runs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def to_json(self) -> dict:
        return {"support": self.support.tolist(), "probs": self.probs.tolist()}

    @staticmethod
    def from_json(obj: dict) -> "ValueDist":
        try:
            return make_discrete(_numbers(obj["support"], "support"), _numbers(obj["probs"], "probs"))
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"a value distribution is an object with 'support' and 'probs' lists ({exc})"
            ) from exc


def _numbers(x, name: str):
    """JSON value x, refused if it is a bool, or a list with an entry, at any depth, that is
    neither a number (an int or a float, not a bool) nor a list; a tuple counts as a list.
    Any other value goes on to its reader, which refuses a string or null in its place."""
    if isinstance(x, (list, tuple)) and not set(map(type, x)) <= {float, int}:
        for j, y in enumerate(x):
            if isinstance(y, (list, tuple)):
                _numbers(y, f"{name}[{j}]")
            elif type(y) is not float and type(y) is not int:
                raise ValueError(f"{name}[{j}] is {y!r}, not a number")
    elif type(x) is bool:
        raise ValueError(f"{name} is {x!r}, not a number")
    return x


# Most atoms a prior derives in Python; beyond, arrays win (they break even near 100-130 atoms).
_GATE = 128


def _envelope(points) -> list[tuple[float, float]]:
    """Upper concave envelope of (q, r) points in increasing q by one monotone-chain sweep."""
    hull: list[tuple[float, float]] = []
    for q, r in points:
        while len(hull) >= 2:
            (q0, r0), (q1, r1) = hull[-2], hull[-1]
            # pop the middle point when it is on or below the chord
            if (q1 - q0) * (r - r0) - (r1 - r0) * (q - q0) >= 0.0:
                hull.pop()
            else:
                break
        hull.append((q, r))
    return hull


def _thin(points: np.ndarray, least: int, patience: int) -> tuple[np.ndarray, int]:
    """Points (2, k) in increasing q thinned by passes, and the last pass's drop count: each drops every point on or
    below the chord of its two current neighbours, the chain's test, while over least points remain, until one drops
    none or, from pass patience on, under a quarter. A dropped point is never a hull vertex: the chain on what is left
    gives the whole chain's hull, and pops nothing after a pass that drops nothing. No chord through a NaN is tested."""
    dropped = passes = 0
    while points.shape[1] > least:
        step, span = points[:, 1:-1] - points[:, :-2], points[:, 2:] - points[:, :-2]
        low = step[0] * span[1] - step[1] * span[0] >= 0.0
        dropped, passes = np.count_nonzero(low), passes + 1
        points = points.compress(np.concatenate(([True], ~low, [True])), axis=1)
        if not dropped or passes >= patience and 4 * dropped < len(low) + 2:
            break
    return points, dropped


def _derive(support: np.ndarray, probs: np.ndarray, starts: np.ndarray) -> tuple | None:
    """The block fill: the arrays ValueDist derives, bit for bit, of rows of atoms of any width laid end to end, row j
    from starts[j] to starts[j + 1]; None for a block with a row that ValueDist refuses.

    Rows padded with +0.0 to width + 2 entries keep their running and tail sums, one cumsum each. Every revenue
    curve is laid end to end after a NaN revenue, so _thin tests no chord across two rows; a thinning that stalls
    past 8 passes leaves one chain sweep for all rows, which a NaN stops too. An atom's segment is found by one
    search of its (row, tail mass) key among the hull points' (row, quantile) keys, complex numbers, which sort by
    real part first. Returns (values, masses, below, above) as (rows, width + 2), the hulls end to end with each
    row's first index, and slopes and a run-start mask as (rows, width).
    """
    lens = starts[1:] - starts[:-1]
    width, rows = int(lens.max(initial=0)), len(lens)
    block = np.zeros((5, rows, width + 2))  # every row ends in at least two 0.0 pads
    values, masses, below, above, revenue = block
    entry = np.arange(width + 2)
    atoms = entry < lens[:, None]  # the entries that hold an atom, not a pad
    values[atoms], masses[atoms] = support, probs
    np.add.accumulate(masses[:, :-1], axis=1, out=below[:, 1:])
    np.add.accumulate(masses[:, -2::-1], axis=1, out=above[:, -2::-1])
    rising = (values[:, 1:width] > values[:, : width - 1]) | ~atoms[:, 1:width]
    if not ((probs > 0.0).all() and ((support >= 0.0) & (support <= 1.0)).all() and rising.all()
            and (np.abs(below[:, -1] - 1.0) <= MASS_TOL).all() and (above[:, 1] < 1.0).all()):  # False at NaN
        return None  # _each refuses the first row that fails
    above[:, 0] = 1.0
    np.multiply(above, values, out=revenue)
    revenue[np.arange(rows), lens + 1] = np.nan
    # row j from its NaN at entry lens[j] + 1 and its (0.0, 0.0) at entry lens[j] back to its lowest atom
    curve = block[3:, :, ::-1].reshape(2, -1).compress((entry[::-1] <= lens[:, None] + 1).ravel(), axis=1)
    points, dropped = _thin(curve, 0, 8)  # a pass costs about a sixteenth of the chain, which most blocks never run
    if dropped:
        points = np.array(_envelope(zip(*points.tolist()))).T
    nan = np.isnan(points[1])
    firsts = np.flatnonzero(nan) - np.arange(rows)  # each row's first hull point
    keys = (np.cumsum(nan) - 1 + 1j * points[0])[~nan]
    hull = points.compress(~nan, axis=1).T.copy()
    step = hull[1:] - hull[:-1]
    segment = keys.searchsorted(np.arange(rows)[:, None] + 1j * above[:, 1 : width + 1], "right") - 1
    slopes = (step[:, 1] / step[:, 0])[segment]
    first = atoms[:, :width].copy()
    first[:, 1:] &= slopes[:, 1:] != slopes[:, :-1]
    return values, masses, below, above, hull, firsts, slopes, first


def _runs(support: np.ndarray, probs: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ironed virtual value and first atom of every run of equal slopes of each row of atoms laid end to end,
    row by row, and each row's count of runs, bit for bit as ValueDist derives them, with no prior built."""
    derived = _derive(support, probs, starts)
    if derived is None:
        _each(support, probs, starts)  # raises the first refused row's refusal, after its index
    values, *_, slopes, first = derived
    return slopes[first], values[:, :-2][first], first.sum(axis=1)


def _each(support: np.ndarray, probs: np.ndarray, starts: np.ndarray) -> list[ValueDist]:
    """ValueDist(support[lo:hi], probs[lo:hi]) of each row of atoms laid end to end, row j from starts[j] to
    starts[j + 1], whose refusal of a row is raised after its index."""
    dists = []
    for j, (lo, hi) in enumerate(zip(starts.tolist(), starts[1:].tolist())):
        try:
            dists.append(ValueDist(support[lo:hi], probs[lo:hi]))
        except ValueError as exc:
            raise ValueError(f"row {j}: {exc}") from None
    return dists


def _curve(support: np.ndarray, above: np.ndarray) -> np.ndarray:
    """The revenue curve's quantiles over its revenues, a (2, m + 1) array: (0, 0), then
    (Pr[u >= v], v * Pr[u >= v]) per atom in descending value order, so quantiles rise to 1."""
    q = above[::-1]
    return np.stack((q, q * np.append(0.0, support[::-1])))


def _iron(support, above):
    """The hull of the revenue curve of the atoms at support with tail sums
    above, the hull's slope to the right of each support value's quantile,
    and the index of the first atom of each run of equal slopes, as arrays.

    Up to _GATE atoms, support and above are lists and the derivation runs
    in Python: the chain over every breakpoint, then one pointer down the
    hull's segments while the atoms are taken in ascending order, as their
    quantiles fall. Beyond, both are arrays and so is every step: the
    breakpoints, stacked as one (2, m + 1) array, are thinned (_thin) until
    at most _GATE points remain, the chain runs on what remains, and one
    searchsorted over the hull's quantiles finds each atom's segment.
    """
    if len(support) > _GATE:
        points, _ = _thin(_curve(support, above), _GATE, 1)
        hull = np.array(_envelope(zip(*points.tolist())))
        hq, hr = hull.T
        k = np.searchsorted(hq, above[1:], side="right") - 1
        slopes = (np.diff(hr) / np.diff(hq))[k]
        return hull, slopes, np.flatnonzero(np.append(True, slopes[1:] != slopes[:-1]))
    tails = zip(reversed(support), reversed(above[:-1]))
    hull = _envelope(((0.0, 0.0),) + tuple((q, q * v) for v, q in tails))
    slopes, starts, last = [], [], None
    k = len(hull) - 2
    for q in above[1:]:
        while hull[k][0] > q:
            k -= 1
        (q0, r0), (q1, r1) = hull[k], hull[k + 1]
        slope = (r1 - r0) / (q1 - q0)
        if slope != last:  # the first atom of a run; last is None before the first atom
            starts.append(len(slopes))
        slopes.append(slope)
        last = slope
    return np.array(hull), np.array(slopes), np.array(starts, dtype=np.intp)


class VirtualTable(NamedTuple):
    """Ironed virtual values as a right-continuous step function of value.

    Segment j covers [thresholds[j], thresholds[j+1]); the last segment
    extends past the top atom. thresholds is the prior's support array and
    slopes its ironed virtual values, both read-only float arrays.
    """

    thresholds: np.ndarray
    slopes: np.ndarray


def virtual_table(d: ValueDist) -> VirtualTable:
    """The ironed virtual value of each support value, which d derived when it was built."""
    return VirtualTable(d.support, d._slopes)


def ironing_intervals(d: ValueDist) -> list[tuple[float, float]]:
    """Maximal quantile intervals where the hull sits strictly above the revenue curve.

    A hull segment counts as ironed when some raw breakpoint strictly
    inside it lies more than 1e-12 below the hull. The hull's breakpoints
    are raw breakpoints, so one searchsorted of the raw quantiles below 1
    over the hull's gives each raw breakpoint the segment it lies in.
    """
    q, r = _curve(d.support, d._above)[:, :-1]
    hq, hr = d._hull.T
    k = np.searchsorted(hq, q, side="right") - 1
    q0, r0, slope = hq[k], hr[k], (np.diff(hr) / np.diff(hq))[k]
    ironed = np.zeros(len(hq) - 1, dtype=bool)
    ironed[k[(q0 < q) & (r0 + slope * (q - q0) - r > 1e-12)]] = True
    return list(zip(hq[:-1][ironed].tolist(), hq[1:][ironed].tolist()))


def monopoly(d: ValueDist) -> tuple[float, float]:
    """Best take-it-or-leave-it price over the support, ties toward the larger price."""
    revenues = d.support * d._above[:-1]
    k = len(revenues) - 1 - int(revenues[::-1].argmax())  # the last maximum: the larger price
    return float(d.support[k]), float(revenues[k])


class ProductDist(tuple):
    """Independent per-bidder value distributions: the tuple of its coordinates."""

    __slots__ = ()

    def __new__(cls, dists):
        self = super().__new__(cls, dists)
        if not self:
            raise ValueError("a product distribution needs at least one coordinate")
        return self

    n = property(len)  # the number of bidders

    def to_json(self) -> list:
        return [d.to_json() for d in self]

    @staticmethod
    def from_json(obj: list) -> "ProductDist":
        if not isinstance(obj, list):
            raise ValueError("a product distribution is a list of value distributions")
        return ProductDist(ValueDist.from_json(o) for o in obj)


def make_discrete(values, probs) -> ValueDist:
    """Build a ValueDist from raw atoms.

    Duplicate values are merged, zero-mass atoms dropped and the support
    sorted ascending: a stable sort and an in-order bincount add the masses
    of equal values left to right, and the first of them (0.0 or -0.0) is
    kept. Checked here, as the merge would hide them: each atom's value in
    [0, 1] and mass not below -MASS_TOL, by two reductions over the sorted
    atoms; only on failure is the first bad atom in input order looked up.
    ValueDist checks the merged atoms, the sum included; a NaN mass
    survives the merge, to be refused there.
    """
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if values.ndim != 1 or values.shape != probs.shape:
        raise ValueError(
            f"values {values.shape} and probabilities {probs.shape}: need flat lists of one length"
        )
    order = values.argsort(kind="stable")
    atoms, weights = values[order], probs[order]
    inside = not len(atoms) or (atoms[0] >= 0.0 and atoms[-1] <= 1.0)  # a NaN value sorts last
    if not inside or (weights < -MASS_TOL).any():
        bad = (probs < -MASS_TOL) | ~((values >= 0.0) & (values <= 1.0))
        v, p = float(values[bad][0]), float(probs[bad][0])  # its mass checked before its value
        raise ValueError(
            f"negative probability {p!r}" if p < -MASS_TOL else f"value {v!r} outside [0, 1]"
        )
    first = np.concatenate(([True], atoms[1:] != atoms[:-1]))[: len(atoms)]  # [] for no atoms
    masses = np.bincount(first.cumsum() - 1, weights=weights)
    keep = ~(masses <= 0.0)
    return ValueDist(atoms[first][keep], masses[keep])


def point_mass(v: float) -> ValueDist:
    return ValueDist((float(v),), (1.0,))


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
        sa, sb = ai.support, bi.support
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


def _check_args(n: float, k: float, eps: float = 1.0):
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps {eps!r} outside (0, 1]")
    if not (n >= 1 and k >= 1):  # also catches NaN
        raise ValueError(f"n and k must be at least 1, got n={n!r} k={k!r}")


def is_close(a: ProductDist, b: ProductDist, eps: float, n: int, k: float) -> bool:
    """Variance-sensitive closeness of per-bidder CDFs.

    At every checkpoint the gap must stay within
    sqrt(min-variance * eps^2 / (4nk)) + eps^2 / (2nk).
    """
    _check_args(n, k, eps)
    fa, fb = _cdf_pairs(a, b)
    bound = np.sqrt(_min_variance(fa, fb) * eps * eps / (4.0 * n * k)) + eps * eps / (2.0 * n * k)
    return not np.any(np.abs(fa - fb) > bound + CDF_TOL)


def is_close_uniform(a: ProductDist, b: ProductDist, eps: float, n: int, k: float) -> bool:
    """Uniform closeness: every CDF gap at most eps / sqrt(nk)."""
    _check_args(n, k, eps)
    fa, fb = _cdf_pairs(a, b)
    return not np.any(np.abs(fa - fb) > eps / sqrt(n * k) + CDF_TOL)


def min_closeness_eps(a: ProductDist, b: ProductDist, n: int, k: float) -> float:
    """Smallest eps at which is_close(a, b, eps, n, k) holds.

    Solved per checkpoint from the closed-form bound (a quadratic in eps)
    and maximized; may exceed 1, in which case no valid eps exists.
    """
    _check_args(n, k)
    fa, fb = _cdf_pairs(a, b)
    gap = np.abs(fa - fb)
    far = gap > CDF_TOL
    qa = 1.0 / (2.0 * n * k)
    qb = np.sqrt(_min_variance(fa[far], fb[far]) / (4.0 * n * k))
    eps_pts = (-qb + np.sqrt(qb * qb + 4.0 * qa * gap[far])) / (2.0 * qa)
    return float(eps_pts.max(initial=0.0))
