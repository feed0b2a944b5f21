"""Slow reference formulations that the library's one-pass code is tested against.

Each function evaluates its definition directly, point by point, with
quadratic cost: CDFs by a scalar left-to-right sum at every merged support
point and at its left limit, the envelope by the monotone chain over every
breakpoint with no thinning, virtual tables by a pointer walk down that
envelope, virtual values by one envelope lookup per atom, ironed segments
by a scan of the whole raw curve per segment, the matroid exchange
property over every pair of set sizes, the exchange violation search
over member tuples, the disjoint union of set systems
over the full product of their sets, and the auction one profile at a
time: a scalar welfare scan over the vertices, a payment integral that
re-runs it at each own-value breakpoint, and expectations over the full
product of supports. The per-atom auction keeps one cell per atom where
the library keeps one per run of equal ironed virtual value.
Distributions are built by merging atoms one at a time in a dict, and
learned priors column by column through np.unique. The library must
agree with them bit for bit, except that payments, revenue and welfare
may differ in the last bits.
"""

from bisect import bisect_right
from dataclasses import replace
from itertools import product
from math import log, sqrt

import numpy as np

from myersonlab.auction import myerson
from myersonlab.curves import NEG_INF, RevenueCurve, VirtualTable, revenue_curve
from myersonlab.dist import CDF_TOL, MASS_TOL, ProductDist, ValueDist, quantile_of_value
from myersonlab.feasible import from_independent_sets, members


def make_discrete(values, probs):
    """Atoms merged one at a time in input order: the first of equal values is the key."""
    values = [float(v) for v in values]
    probs = [float(p) for p in probs]
    if len(values) != len(probs):
        raise ValueError(f"{len(values)} values but {len(probs)} probabilities")
    total = sum(probs)
    if not abs(total - 1.0) <= MASS_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    merged = {}
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


def empirical(s):
    dists = []
    for j in range(s.n):
        vals, counts = np.unique(s.values[:, j], return_counts=True)
        dists.append(make_discrete(vals, counts / s.count))
    return ProductDist(tuple(dists))


def dominated_empirical(s, delta):
    """Each column's empirical CDF at its distinct values, inflated and cumulative-maxed alone."""
    n, count = s.n, s.count
    coef = log(2.0 * n * count / delta)
    dists = []
    for j in range(n):
        vals, counts = np.unique(s.values[:, j], return_counts=True)
        emp = np.cumsum(counts) / count
        inflated = np.minimum(
            1.0,
            emp + np.sqrt(2.0 * emp * (1.0 - emp) * coef / count) + 4.0 * coef / count,
        )
        inflated = np.maximum.accumulate(inflated)
        bottom = min(1.0, 4.0 * coef / count)
        masses = np.diff(inflated, prepend=bottom)
        dists.append(make_discrete([0.0] + list(vals), [bottom] + list(masses)))
    return ProductDist(tuple(dists))


def iron(c):
    """Upper concave envelope by one monotone-chain sweep over every breakpoint."""
    hull = []
    for q, r in c.breakpoints:
        while len(hull) >= 2:
            (q0, r0), (q1, r1) = hull[-2], hull[-1]
            # pop the middle point when it is on or below the chord
            if (q1 - q0) * (r - r0) - (r1 - r0) * (q - q0) >= 0.0:
                hull.pop()
            else:
                break
        hull.append((q, r))
    return RevenueCurve(tuple(hull))


def virtual_table(d):
    """Envelope slopes of the support values, one pointer walking down the full chain's hull."""
    hull = iron(revenue_curve(d)).breakpoints
    slopes = []
    k = len(hull) - 2
    for q in d._above[1:]:
        while hull[k][0] > q:
            k -= 1
        (q0, r0), (q1, r1) = hull[k], hull[k + 1]
        slopes.append((r1 - r0) / (q1 - q0))
    return VirtualTable(d.support, tuple(slopes))


def right_slope_at(c, q):
    """Slope of the curve's segment to the right of quantile q in [0, 1)."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"no right derivative at quantile {q!r}")
    bps = c.breakpoints
    idx = bisect_right([p[0] for p in bps], q) - 1
    (q0, r0), (q1, r1) = bps[idx], bps[idx + 1]
    return (r1 - r0) / (q1 - q0)


def virtual_slopes(d):
    """Right slope of the ironed revenue curve at the quantile of each support value."""
    hull = iron(revenue_curve(d))
    return tuple(right_slope_at(hull, quantile_of_value(d, v)) for v in d.support)


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


def find_exchange_violation(fs):
    """Witness (S, S') of a failed exchange with |S| = |S'| + 1, or None.

    Builds the member tuple of S minus S' for every pair and keeps the
    violating pair with the largest intersection, then the lexicographically
    first sorted member tuples.
    """
    have = set(fs.sets_view)
    by_size = {}
    for m in fs.sets_view:
        by_size.setdefault(bin(m).count("1"), []).append(m)
    best = None
    best_key = None
    for sz, bigs in by_size.items():
        for s in bigs:
            for sp in by_size.get(sz - 1, []):
                violated = True
                for i in members(s & ~sp):
                    if sp | (1 << i) in have:
                        violated = False
                        break
                if s & ~sp and violated:
                    key = (-bin(s & sp).count("1"), members(s), members(sp))
                    if best_key is None or key < best_key:
                        best, best_key = (members(s), members(sp)), key
    return best


def disjoint_union(parts):
    """Binary systems side by side: one feasible set per choice of a set from each part."""
    if any(p.sets_view is None for p in parts):
        raise ValueError("disjoint union needs binary systems")
    offsets = [sum(p.n for p in parts[:j]) for j in range(len(parts))]
    sets = [
        [i + off for m, off in zip(combo, offsets) for i in members(m)]
        for combo in product(*[p.sets_view for p in parts])
    ]
    return from_independent_sets(sum(p.n for p in parts), sets)


def per_atom_auction(prior, fs):
    """myerson's auction with one cell per atom: cell c > 0 is atom c - 1 of the bidder's table.

    It holds no outcome tables, so every evaluation runs the kernel on lines of atoms.
    """
    a = myerson(prior, fs)
    tables = [virtual_table(d) for d in prior]
    width = max(len(t.slopes) for t in tables)
    phis = np.array([(0.0,) + t.slopes + (0.0,) * (width - len(t.slopes)) for t in tables])
    thresholds = np.array([t.thresholds + (0.0,) * (width - len(t.thresholds)) for t in tables])
    atoms = tuple(len(t.thresholds) for t in tables)
    return replace(a, _phis=phis, _thresholds=thresholds, _runs=atoms, _ranks=None, _outcomes=None)


def allocate(a, values):
    """Vertex maximizing ironed virtual welfare, scanned in tie order.

    Bidders below their prior's lowest atom get NEG_INF and sink: vertices
    allocating to them are excluded while any other is left, and otherwise
    every vertex is ranked by the welfare of its non-sunk part.
    """
    verts = a.feasible.vertices
    phis = [virtual_table(d).at(v) for d, v in zip(a.prior, values)]
    sunk = [i for i, p in enumerate(phis) if p is NEG_INF]
    candidates = [j for j in a.tie_order if all(verts[j][i] <= 0.0 for i in sunk)]
    if candidates:
        eff = phis
    else:
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
    return verts[best]


def payments(a, values):
    """p_i = v_i x_i minus the integral of x_i over own values in [0, v_i], for winners."""
    values = tuple(float(v) for v in values)
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
    return tuple(pays)


def expected_revenue(a, eval_dist):
    """Probability-weighted revenue over the full product of supports."""
    total = 0.0
    for combo in product(*[list(zip(d.support, d.probs)) for d in eval_dist]):
        prob = 1.0
        for _, p in combo:
            prob *= p
        total += prob * sum(payments(a, tuple(v for v, _ in combo)))
    return total


def expected_virtual_welfare(a, eval_dist):
    """Probability-weighted ironed virtual welfare over the full product of supports.

    A bidder below its prior's lowest atom counts 0, as in the allocation rule.
    """
    total = 0.0
    for combo in product(*[list(zip(d.support, d.probs)) for d in eval_dist]):
        prob = 1.0
        for _, p in combo:
            prob *= p
        values = tuple(v for v, _ in combo)
        phis = [virtual_table(d).at(v) for d, v in zip(a.prior, values)]
        x = allocate(a, values)
        total += prob * sum(xi * p for xi, p in zip(x, phis) if p is not NEG_INF)
    return total
