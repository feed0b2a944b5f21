"""Sampling and the learned prior: the dominated empirical distribution, of one sample matrix
or of a stack of trials in one pass, sample-count formulas, and the Hellinger distance.

Natural logarithms throughout the sample-count and inflation formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf, log, sqrt

import numpy as np

from .dist import _GATE, ProductDist, ValueDist


@dataclass(frozen=True, eq=False)
class SampleMatrix:
    """count x n matrix of values in [0, 1], read off its shape; column i is i.i.d. from coordinate i."""

    values: np.ndarray

    @property
    def count(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


def draw_samples(d: ProductDist, count: int, seed) -> SampleMatrix:
    """Inverse-CDF sampling per coordinate; deterministic given the seed.

    A Generator seed is consumed: the call reads its next count x n doubles, in row order, so
    calls on one stream read consecutive blocks of it. Each column's values overwrite its own
    uniforms, so the call holds one block and a column's scratch, and returns that block
    read-only. A column whose prior has more than _GATE atoms searches its uniforms in sorted
    order and scatters the values back: sorted keys take nearly the same path down a search over
    so many partial sums, where random keys mispredict at every step. The values are those of a
    direct search.
    """
    if count < 1:
        raise ValueError("sample count must be at least 1")
    values = np.random.default_rng(seed).random((count, d.n))
    for col, dj in zip(values.T, d):
        # without the last partial sum, the top atom takes every u past the others' mass
        order = slice(None) if len(dj.support) <= _GATE else col.argsort()
        col[order] = dj.support[dj._below[1:-1].searchsorted(col[order])]
    values.setflags(write=False)
    return SampleMatrix(values)


def dominated_empirical(s: SampleMatrix, delta: float) -> ProductDist:
    """Empirical distribution inflated so the true prior dominates it w.h.p.

    Per coordinate the empirical CDF e is inflated by a Bernstein-style radius at each support
    point and clamped to 1. The result is nondecreasing: f(e) = e + sqrt(2e(1-e)c/N) + 4c/N is
    concave with f(1) > 1, so it falls only where it is already clamped. The inflated CDF is
    positive below the lowest sample, so that mass is realized as an atom at value 0; pushing it
    to the bottom is what keeps dominance implied by the CDF inequality alone. The inflation
    depends only on how many samples are at most a value.
    """
    return _learn(s.values[None], delta)[0]


def _learn(stack: np.ndarray, delta: float) -> list[ProductDist]:
    """dominated_empirical of each trial's count x n block of a (trials, count, n) stack: each
    trial's bidder is a row of one flat array, and all rows are sorted and learned in one pass."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta {delta!r} outside (0, 1)")
    trials, count, n = stack.shape
    flat = np.full(trials * n * (count + 1) + 1, -1.0)  # unlike any sample: each row's slot, and one past
    rows = flat[:-1].reshape(trials, n, count + 1)  # row t * n + j: a slot, then trial t's bidder j
    rows[..., 1:] = stack.transpose(0, 2, 1)
    rows[..., 1:].sort()
    if not (rows[..., 1].min(initial=0.0) >= 0.0 and rows[..., -1].max(initial=1.0) <= 1.0):
        raise ValueError("sample values must lie in [0, 1]")  # NaN sorts last
    last = np.flatnonzero(flat[1:] != flat[:-1])  # run ends: a slot ends one of its own and the one before
    at_most = last % (count + 1)  # samples of the row at most the run's value; 0 at its slot
    emp, coef = at_most / count, log(2.0 * n * count / delta)
    cum = np.minimum(1.0, emp + np.sqrt(2.0 * emp * (1.0 - emp) * coef / count) + 4.0 * coef / count)
    head, vals = np.flatnonzero(at_most == 0), flat[last]
    masses = np.empty_like(cum)
    masses[1:] = cum[1:] - cum[:-1]
    masses[head], vals[head] = cum[head], 0.0  # the bottom atom's mass is min(1, 4c/N)
    # samples at 0, a run of 0.0 and -0.0 in whatever order the sort left
    # them, join the bottom atom, which takes the value 0.0
    zero = head[vals[head + 1] == 0.0]
    masses[zero] += masses[zero + 1]
    masses[zero + 1] = 0.0
    keep = masses > 0.0  # values past the clamp get no mass
    vals, masses = vals[keep], masses[keep]
    bounds = np.flatnonzero(vals == 0.0).tolist() + [len(vals)]  # each prior has one atom at 0.0
    dists = [ValueDist(vals[lo:hi], masses[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return [ProductDist(dists[t * n : t * n + n]) for t in range(trials)]


def required_samples(
    setting: str, n: int, k: float, eps: float, delta: float, C: float
) -> int:
    """Sample count for learning a near-optimal auction at the given scale.

    downward_closed: C (nk / eps^2) ln(nk / (eps delta))
    general:         C (nk^2 / eps^2) ln(nk / eps) ln(nk / (eps delta))
    """
    if not (0 < eps < 1 and 0 < delta < 1 and all(0 < x < inf for x in (n, k, C))):
        raise ValueError("n, k and C positive and finite, eps and delta in (0, 1)")
    if setting == "downward_closed":
        raw = C * (n * k / eps**2) * log(n * k / (eps * delta))
    elif setting == "general":
        raw = C * (n * k**2 / eps**2) * log(n * k / eps) * log(n * k / (eps * delta))
    else:
        raise ValueError(f"unknown setting {setting!r}")
    return ceil(raw)


def hellinger_sq(p: ValueDist, q: ValueDist) -> float:
    """Squared Hellinger distance over the merged support; in [0, 1]."""
    pm = dict(zip(p.support.tolist(), p.probs.tolist()))
    qm = dict(zip(q.support.tolist(), q.probs.tolist()))
    total = 0.0
    for v in set(pm) | set(qm):
        total += (sqrt(pm.get(v, 0.0)) - sqrt(qm.get(v, 0.0))) ** 2
    return 0.5 * total
