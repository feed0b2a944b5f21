"""Slow reference formulations that the library's one-pass code is tested against.

Each function evaluates its definition directly, point by point, with
quadratic cost: CDFs by a scalar left-to-right sum at every merged support
point and at its left limit, virtual values by one envelope lookup per
atom, ironed segments by a scan of the whole raw curve per segment, and
the matroid exchange property over every pair of set sizes.
The library must agree with them bit for bit.
"""

from math import sqrt

from myersonlab.curves import iron, revenue_curve
from myersonlab.dist import CDF_TOL, quantile_of_value
from myersonlab.feasible import members


def virtual_slopes(d):
    """Right slope of the ironed revenue curve at the quantile of each support value."""
    hull = iron(revenue_curve(d))
    return tuple(hull.right_slope_at(quantile_of_value(d, v)) for v in d.support)


def ironing_intervals(d):
    """Envelope segments with a raw breakpoint strictly inside and 1e-12 below."""
    raw = revenue_curve(d)
    hull = iron(raw).breakpoints
    out = []
    for (q0, r0), (q1, r1) in zip(hull, hull[1:]):
        slope = (r1 - r0) / (q1 - q0)
        if any(q0 < q < q1 and r0 + slope * (q - q0) - r > 1e-12 for q, r in raw.breakpoints):
            out.append((q0, q1))
    return out


def scalar_cdf(d, v, left=False):
    """Pr[u <= v], or Pr[u < v] when left is set, summed left to right."""
    total = 0.0
    for s, p in zip(d.support, d.probs):
        if s < v or (s == v and not left):
            total += p
    return total


def checkpoint_pairs(a, b):
    """CDF pairs of a and b at each merged support point and at its left limit."""
    for v in sorted(set(a.support) | set(b.support)):
        yield scalar_cdf(a, v), scalar_cdf(b, v)
        yield scalar_cdf(a, v, left=True), scalar_cdf(b, v, left=True)


def dominates(big, small):
    for bi, si in zip(big, small):
        for v in sorted(set(bi.support) | set(si.support)):
            if scalar_cdf(bi, v) > scalar_cdf(si, v) + CDF_TOL:
                return False
    return True


def is_close(a, b, eps, n, k):
    for ai, bi in zip(a, b):
        for fa, fb in checkpoint_pairs(ai, bi):
            var = max(0.0, min(fa * (1.0 - fa), fb * (1.0 - fb)))
            bound = sqrt(var * eps * eps / (4.0 * n * k)) + eps * eps / (2.0 * n * k)
            if abs(fa - fb) > bound + CDF_TOL:
                return False
    return True


def is_close_uniform(a, b, eps, n, k):
    bound = eps / sqrt(n * k)
    for ai, bi in zip(a, b):
        for fa, fb in checkpoint_pairs(ai, bi):
            if abs(fa - fb) > bound + CDF_TOL:
                return False
    return True


def min_closeness_eps(a, b, n, k):
    worst = 0.0
    qa = 1.0 / (2.0 * n * k)
    for ai, bi in zip(a, b):
        for fa, fb in checkpoint_pairs(ai, bi):
            gap = abs(fa - fb)
            if gap <= CDF_TOL:
                continue
            var = max(0.0, min(fa * (1.0 - fa), fb * (1.0 - fb)))
            qb = sqrt(var / (4.0 * n * k))
            worst = max(worst, (-qb + sqrt(qb * qb + 4.0 * qa * gap)) / (2.0 * qa))
    return worst


def min_uniform_closeness_eps(a, b, n, k):
    worst = 0.0
    for ai, bi in zip(a, b):
        for fa, fb in checkpoint_pairs(ai, bi):
            worst = max(worst, abs(fa - fb))
    return worst * sqrt(n * k)


def is_matroid(view):
    """Exchange property of a downward-closed family of bitmasks, over all size pairs."""
    have = set(view)
    by_size = {}
    for m in view:
        by_size.setdefault(bin(m).count("1"), []).append(m)
    for small_sz, smalls in by_size.items():
        for big_sz, bigs in by_size.items():
            if big_sz <= small_sz:
                continue
            for sp in smalls:
                for s in bigs:
                    if not any(sp | (1 << i) in have for i in members(s & ~sp)):
                        return False
    return True
