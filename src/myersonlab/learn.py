"""Sampling and the learned prior: the dominated empirical distribution,
sample-count formulas, and the Hellinger distance.

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
    calls on one stream read consecutive blocks of it. A column whose prior has more than _GATE
    atoms searches its uniforms in sorted order and scatters the values back: sorted keys take
    nearly the same path down a search over so many partial sums, where random keys mispredict
    at every step. The values are those of a direct search.
    """
    if count < 1:
        raise ValueError("sample count must be at least 1")
    u = np.random.default_rng(seed).random((count, d.n))
    values = np.empty_like(u)
    for j, dj in enumerate(d):
        # without the last partial sum, the top atom takes every u past the others' mass
        sums = dj._below[1:-1]
        order = slice(None) if len(dj.support) <= _GATE else u[:, j].argsort()
        values[order, j] = dj.support[sums.searchsorted(u[order, j])]
    values.setflags(write=False)
    return SampleMatrix(values)


def dominated_empirical(s: SampleMatrix, delta: float) -> ProductDist:
    """Empirical distribution inflated so the true prior dominates it w.h.p.

    Per coordinate the empirical CDF e is inflated by a Bernstein-style
    radius at each support point and clamped to 1. The result is
    nondecreasing: f(e) = e + sqrt(2e(1-e)c/N) + 4c/N is concave with
    f(1) > 1, so it falls only where it is already clamped. The inflated
    CDF is positive below the lowest sample, so that mass is realized as
    an atom at value 0; pushing it to the bottom is what keeps dominance
    implied by the CDF inequality alone. The inflation depends only on how
    many samples are at most a value.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta {delta!r} outside (0, 1)")
    srt = np.sort(s.values, axis=0)
    if not (srt[0].min() >= 0.0 and srt[-1].max() <= 1.0):  # NaN sorts last
        raise ValueError("sample values must lie in [0, 1]")
    n, count = s.n, s.count
    coef = log(2.0 * n * count / delta)
    bottom = min(1.0, 4.0 * coef / count)
    ends = srt[1:] != srt[:-1]  # row r ends a run when the next row differs
    dists = []
    for j in range(n):
        at_most = np.append(np.flatnonzero(ends[:, j]) + 1, count)
        vals = srt[at_most - 1, j]
        emp = at_most / count
        inflated = emp + np.sqrt(2.0 * emp * (1.0 - emp) * coef / count) + 4.0 * coef / count
        cum = np.concatenate(([0.0, bottom], np.minimum(1.0, inflated)))
        masses = cum[1:] - cum[:-1]
        # samples at 0, a run of 0.0 and -0.0 in whatever order the sort left
        # them, join the bottom atom, which takes the value 0.0
        if vals[0] == 0.0:
            vals, masses = vals[1:], np.concatenate(([masses[0] + masses[1]], masses[2:]))
        keep = masses > 0.0  # values past the clamp get no mass
        vals = np.concatenate(([0.0], vals))[keep]
        dists.append(ValueDist(vals, masses[keep]))
    return ProductDist(tuple(dists))


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
