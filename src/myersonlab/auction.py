"""Myerson's optimal auction for a design prior over a feasible system.

The auction precomputes each bidder's ironed-virtual-value step function
from the prior, picks the vertex maximizing ironed virtual welfare, and
charges the threshold payments that make the allocation truthful. Revenue
can be evaluated exactly on any discrete distribution, or by seeded Monte
Carlo. Auction objects are immutable after construction apart from
internal memo tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import sqrt

import numpy as np

from .curves import NEG_INF, VirtualTable, virtual_table
from .dist import ProductDist
from .feasible import FeasibleSet
from .learn import draw_samples

IDENTITY_TOL = 1e-9


class EnumerationCapError(ValueError):
    """Exact enumeration would exceed the configured profile cap."""


class CrossCheckError(RuntimeError):
    """Payment revenue and virtual welfare disagree beyond tolerance."""


@dataclass(frozen=True, eq=False)
class Auction:
    prior: ProductDist
    feasible: FeasibleSet
    virtual_tables: tuple[VirtualTable, ...]
    tie_order: tuple[int, ...]
    _alloc_cache: dict = field(default_factory=dict, repr=False)
    _pay_cache: dict = field(default_factory=dict, repr=False)


def myerson(prior: ProductDist, fs: FeasibleSet) -> Auction:
    """Build the optimal auction for the prior over the feasible system.

    Welfare ties between vertices are broken by a fixed value-independent
    order: descending total allocation, then ascending lexicographic. Any
    fixed order keeps the per-bidder allocation monotone in own value.
    """
    if prior.n != fs.n:
        raise ValueError(f"prior has {prior.n} bidders, system has {fs.n}")
    tables = tuple(virtual_table(d) for d in prior)
    order = tuple(
        sorted(range(len(fs.vertices)), key=lambda j: (-sum(fs.vertices[j]), fs.vertices[j]))
    )
    return Auction(prior, fs, tables, order)


def _allocate_index(a: Auction, segments: tuple[int, ...]) -> int:
    cached = a._alloc_cache.get(segments)
    if cached is not None:
        return cached
    verts = a.feasible.vertices
    phis = [t.for_segment(s) for t, s in zip(a.virtual_tables, segments)]
    sunk = [i for i, p in enumerate(phis) if p is NEG_INF]
    candidates = [j for j in a.tie_order if all(verts[j][i] <= 0.0 for i in sunk)]
    if candidates:
        eff = phis
    else:
        # degenerate: every vertex touches a sunk bidder; rank them by the
        # welfare of their non-sunk part
        candidates = list(a.tie_order)
        eff = [0.0 if p is NEG_INF else p for p in phis]
    best = None
    best_w = None
    for j in candidates:
        w = 0.0
        for x, p in zip(verts[j], eff):
            if x > 0.0:
                w += x * p
        if best_w is None or w > best_w:
            best, best_w = j, w
    a._alloc_cache[segments] = best
    return best


def allocate(a: Auction, values) -> tuple[float, ...]:
    """Vertex maximizing ironed virtual welfare at the given value profile.

    Vertices giving positive allocation to a bidder whose virtual value is
    the NEG_INF sentinel are excluded while any alternative exists.
    """
    segments = tuple(t.segment(v) for t, v in zip(a.virtual_tables, values))
    return a.feasible.vertices[_allocate_index(a, segments)]


def payments(a: Auction, values) -> tuple[float, ...]:
    """Threshold payments: p_i = v_i x_i - integral of x_i over own-value deviations.

    x_i as a function of own value is a step function whose breakpoints are
    the prior's support values, so the integral is an exact finite sum.
    """
    values = tuple(float(v) for v in values)
    cached = a._pay_cache.get(values)
    if cached is not None:
        return cached
    x = allocate(a, values)
    pays = [0.0] * a.feasible.n
    for i, xi in enumerate(x):
        if xi <= 0.0:
            continue
        vi = values[i]
        starts = [0.0] + [s for s in a.prior[i].support if 0.0 < s <= vi]
        integral = 0.0
        for t0, t1 in zip(starts, starts[1:] + [vi]):
            if t1 <= t0:
                continue
            xt = allocate(a, values[:i] + (t0,) + values[i + 1 :])[i]
            integral += xt * (t1 - t0)
        pays[i] = vi * xi - integral
    result = tuple(pays)
    a._pay_cache[values] = result
    return result


def revenue_on_profile(a: Auction, values) -> float:
    return sum(payments(a, values))


def _profiles(eval_dist: ProductDist):
    per_bidder = [list(zip(d.support, d.probs)) for d in eval_dist]
    for combo in product(*per_bidder):
        values = tuple(v for v, _ in combo)
        prob = 1.0
        for _, p in combo:
            prob *= p
        yield values, prob


def _profile_count(eval_dist: ProductDist) -> int:
    count = 1
    for d in eval_dist:
        count *= len(d.support)
    return count


def expected_revenue(a: Auction, eval_dist: ProductDist, cap: int = 10_000_000) -> float:
    """Exact expected revenue under eval_dist by full support enumeration."""
    if eval_dist.n != a.feasible.n:
        raise ValueError(f"evaluation distribution has {eval_dist.n} bidders, need {a.feasible.n}")
    count = _profile_count(eval_dist)
    if count > cap:
        raise EnumerationCapError(f"{count} profiles exceed cap {cap}")
    return sum(prob * revenue_on_profile(a, values) for values, prob in _profiles(eval_dist))


def expected_virtual_welfare(a: Auction) -> float:
    """Expected ironed virtual welfare of the auction under its own prior.

    Equals expected revenue under the prior; under a foreign distribution
    the identity can break, so revenue there is always taken from payments.
    """
    total = 0.0
    for values, prob in _profiles(a.prior):
        x = allocate(a, values)
        w = 0.0
        for xi, table, v in zip(x, a.virtual_tables, values):
            if xi > 0.0:
                w += xi * table.at(v)
        total += prob * w
    return total


def expected_revenue_mc(
    a: Auction, eval_dist: ProductDist, trials: int, seed
) -> tuple[float, float]:
    """Seeded Monte Carlo estimate of expected revenue: (mean, stderr).

    Profiles come from draw_samples, so results are deterministic given the
    seed.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    samples = draw_samples(eval_dist, trials, seed).values
    revs = np.fromiter(
        (revenue_on_profile(a, tuple(float(x) for x in row)) for row in samples),
        dtype=float,
        count=trials,
    )
    mean = float(revs.mean())
    stderr = 0.0 if trials == 1 else float(revs.std(ddof=1) / sqrt(trials))
    return mean, stderr


def opt_revenue(d: ProductDist, fs: FeasibleSet, cap: int = 10_000_000) -> float:
    """Optimal expected revenue for prior d, with an internal identity check.

    Revenue from payments must match expected ironed virtual welfare; a
    divergence beyond 1e-9 signals an allocation or payment bug.
    """
    a = myerson(d, fs)
    rev = expected_revenue(a, d, cap)
    welfare = expected_virtual_welfare(a)
    if abs(rev - welfare) > IDENTITY_TOL:
        raise CrossCheckError(
            f"revenue {rev!r} and ironed virtual welfare {welfare!r} diverge"
        )
    return rev
