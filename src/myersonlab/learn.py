"""Sampling and the learned prior: the dominated empirical distribution, of one sample matrix
or of trials' per-atom counts through one core, sample-count formulas, and the Hellinger distance.

A trial loop's count stream, drawn by _trial_counts, is g.multinomial(count, P, size=(trials, n)), g the
stream of SeedSequence(seed, spawn_key=key) and P each bidder's masses left-padded with zeros to one width.
The learner core derives a block's learned priors in one call of the block fill, dist._fill, so each prior
holds views of the block's arrays.
Natural logarithms throughout the sample-count and inflation formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf, log, sqrt

import numpy as np

from .auction import _BLOCK
from .dist import _GATE, ProductDist, ValueDist, _fill

_TRIALS = 64  # most trials a block of counts holds: a learned two-bidder prior of a few atoms takes ~3 KB


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
    order and scatters the values back, with the same values: sorted keys take nearly the same
    path down a search over so many partial sums, where random keys mispredict at every step.
    A shorter prior's column is searched directly, for memory as well as speed: the sort's index
    is scratch too, and sorting every column raised the peak of 7,950 x 2 draws by a quarter,
    past the trial-loop memory test's bound, and more than doubled the time of 1,726 draws.
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
    depends only on how many samples are at most a value, which one sort of the matrix counts.
    """
    count, n = s.values.shape
    rows = np.zeros((n, count + 1))  # row j: a slot at 0.0, then column j in increasing order
    rows[:, 1:] = s.values.T
    rows[:, 1:].sort()
    if not (rows[:, 1].min(initial=0.0) >= 0.0 and rows[:, -1].max(initial=1.0) <= 1.0):
        raise ValueError("sample values must lie in [0, 1]")  # NaN sorts last
    at_most = np.arange(count + 1)[None].repeat(n, axis=0)  # c of a row's samples are at most its entry c
    return _learn_rows(rows, at_most, count, n, delta)[0]


def _trial_counts(d: ProductDist, count: int, trials: int, seed, *key):
    """Consecutive trials' per-atom counts, drawn as read, in (trials, n, width) blocks of at most _TRIALS
    trials and _BLOCK numbers, or one trial: row j of a trial counts bidder j's samples at each atom of
    d[j], after zeros."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if count < 1:
        raise ValueError("sample count must be at least 1")
    if count > 2**63 - 1:
        raise ValueError(f"sample count {count} exceeds 2**63 - 1, the most a draw can take")
    width = max(len(dj.probs) for dj in d)  # zeros on the left: a draw's last column takes the rest
    masses = np.array([np.concatenate((np.zeros(width - len(dj.probs)), dj.probs)) for dj in d])
    stream = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    block = max(1, min(_TRIALS, _BLOCK // masses.size))
    sizes = ((min(block, trials - start), d.n) for start in range(0, trials, block))
    return (stream.multinomial(count, masses, size=size) for size in sizes)


def _learn_counts(d: ProductDist, counts: np.ndarray, delta: float) -> list[ProductDist]:
    """dominated_empirical of each trial of a (trials, n, width) stack of per-atom counts: row j of a
    trial counts bidder j's samples at each atom of d[j], after zeros up to the stack's width."""
    trials, n, width = counts.shape
    at_most = np.zeros((trials * n, width + 1), np.int64)  # a slot, then the samples at most each atom
    np.cumsum(counts.reshape(-1, width), axis=1, out=at_most[:, 1:])
    values = [np.concatenate((np.zeros(width + 1 - len(dj.support)), dj.support)) for dj in d]
    return _learn_rows(np.tile(values, (trials, 1)), at_most, int(at_most[:, -1].max(initial=1)), n, delta)


def _learn_rows(vals: np.ndarray, at_most: np.ndarray, count: int, n: int, delta: float) -> list[ProductDist]:
    """The learner core: the dominated empirical priors of rows of values in increasing order, n rows a
    trial, where at_most[i, c] of row i's count samples are at most vals[i, c]. Each row opens with a
    slot at 0.0, and a run of equal values is read at its last entry."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta {delta!r} outside (0, 1)")
    ends = np.ones(vals.shape, bool)
    np.not_equal(vals[:, 1:], vals[:, :-1], out=ends[:, :-1])
    runs = np.flatnonzero(ends)
    vals, at_most = vals.ravel()[runs], at_most.ravel()[runs]
    emp, coef = at_most / count, log(2.0 * n * count / delta)
    cum = np.minimum(1.0, emp + np.sqrt(2.0 * emp * (1.0 - emp) * coef / count) + 4.0 * coef / count)
    bottom = min(1.0, 4.0 * coef / count)  # the inflated CDF below every sample
    head = np.flatnonzero(vals == 0.0)  # each row's slot, with its samples at 0.0 or -0.0
    masses = np.empty_like(cum)
    masses[1:] = cum[1:] - cum[:-1]
    masses[head], vals[head] = bottom + (cum[head] - bottom), 0.0  # bottom, then the samples at 0, added
    keep = masses > 0.0  # values past the clamp get no mass
    vals, masses = vals[keep], masses[keep]
    dists = _fill(vals, masses, np.append(np.flatnonzero(vals == 0.0), len(vals)))  # one atom at 0.0 a prior
    return [ProductDist(dists[t : t + n]) for t in range(0, len(dists), n)]


def required_samples(
    setting: str, n: int, k: float, eps: float, delta: float, C: float
) -> int:
    """Sample count for learning a near-optimal auction at the given scale.

    downward_closed: C (nk / eps^2) ln(nk / (eps delta))
    general:         C (nk^2 / eps^2) ln(nk / eps) ln(nk / (eps delta))
    A count past the float range, or at most 0 (ln(nk / eps) < 0 < ln(nk / (eps delta))), is refused.
    """
    if not (0 < eps < 1 and 0 < delta < 1 and all(0 < x < inf for x in (n, k, C))):
        raise ValueError("n, k and C positive and finite, eps and delta in (0, 1)")
    try:
        if setting == "downward_closed":
            raw = C * (n * k / eps**2) * log(n * k / (eps * delta))
        elif setting == "general":
            raw = C * (n * k**2 / eps**2) * log(n * k / eps) * log(n * k / (eps * delta))
        else:
            raise ValueError(f"unknown setting {setting!r}")
    except ZeroDivisionError:  # eps**2 or eps * delta underflows to 0.0
        raw = inf
    if not 0 < raw < inf:  # also catches NaN
        raise ValueError(f"{setting} sample count at n={n}, k={k}, eps={eps}, delta={delta}, C={C} is {raw}, "
                         "not a positive finite number")
    return ceil(raw)


def hellinger_sq(p: ValueDist, q: ValueDist) -> float:
    """Squared Hellinger distance over the merged support; in [0, 1]."""
    pm = dict(zip(p.support.tolist(), p.probs.tolist()))
    qm = dict(zip(q.support.tolist(), q.probs.tolist()))
    total = 0.0
    for v in set(pm) | set(qm):
        total += (sqrt(pm.get(v, 0.0)) - sqrt(qm.get(v, 0.0))) ** 2
    return 0.5 * total
