"""Slow reference formulations that the library's one-pass code is tested against.

Each function evaluates its definition directly, point by point, with
quadratic cost: CDFs by a scalar left-to-right sum at every merged support
point and at its left limit, revenue-curve quantiles by a scalar sum of
masses from the top atom down, the envelope by the monotone chain over
every breakpoint with no thinning, virtual tables by a pointer walk down
that envelope, virtual values by one envelope lookup per atom, the starts of
runs of equal virtual values by a scan of them, ironed segments by a scan
of the whole raw curve per segment, the curves report through json's
pure-Python indenting encoder, the matroid exchange
property over every pair of set sizes, the exchange violation search
over member tuples, the disjoint union of set systems
over the full product of their sets, the tie order by counting the
vertices ranked ahead of each, the tie-ordered matrix by one lexsort
over the float tuples that bitmasks expand to, and the auction one
profile at a time: a scalar welfare scan over the vertices, a payment
integral that re-runs it at each own-value breakpoint, and expectations
over the full product of supports; table expectations go through the
padded (bidders, cells) mass matrix of line auctions. For tiny binary
instances, virtual values and the optimal revenue are also computed in
exact rational arithmetic. The lb-family regret learns and auctions every
trial afresh. The per-atom auction keeps one cell per atom
where the library keeps one per run of equal ironed virtual value.
Distributions are built by merging atoms one at a time in a dict,
samples drawn column by column with the top index clipped, learned
priors column by column through np.unique or from per-atom sample
counts, set members by a shift loop over every bit position, and the
bitmasks of matrix rows by one shift per coordinate. The library must agree with them bit for bit, except
that payments, revenue and welfare may differ in the last bits.
"""

import json
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import log, prod, sqrt
from types import SimpleNamespace

import numpy as np

from myersonlab import dist
from myersonlab.auction import _terms, myerson
from myersonlab.dist import CDF_TOL, MASS_TOL, ProductDist, ValueDist
from myersonlab.feasible import all_or_nothing, from_independent_sets
from myersonlab.lab import _LEARNER_DELTA
from myersonlab.learn import SampleMatrix


def make_discrete(values, probs):
    """Atoms merged one at a time in input order: the first of equal values is the key.

    Each raw atom is checked first, its mass and then its value. The merged
    atoms of positive or NaN mass are kept, and their masses summed left to
    right in value order must be 1.
    """
    values = [float(v) for v in values]
    probs = [float(p) for p in probs]
    if len(values) != len(probs):
        raise ValueError(f"{len(values)} values but {len(probs)} probabilities")
    merged = {}
    for v, p in zip(values, probs):
        if p < -MASS_TOL:
            raise ValueError(f"negative probability {p!r}")
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"value {v!r} outside [0, 1]")
        merged[v] = merged.get(v, 0.0) + p
    atoms = [(v, p) for v, p in sorted(merged.items()) if not p <= 0.0]
    total = 0.0
    for _, p in atoms:
        total += p
    if not abs(total - 1.0) <= MASS_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    support, probs = zip(*atoms)
    return ValueDist(support, probs)


def draw_samples(d, count, seed):
    """Inverse-CDF columns searched over every partial sum, the index clipped to the top atom."""
    u = np.random.default_rng(seed).random((count, d.n))
    cols = []
    for j, dj in enumerate(d):
        idx = np.minimum(np.searchsorted(dj._below[1:], u[:, j], side="left"), len(dj.support) - 1)
        cols.append(dj.support[idx])
    return SampleMatrix(np.stack(cols, axis=1))


def empirical(s):
    """Each column's distinct values through np.unique; a value equal to 0 is taken as 0.0."""
    dists = []
    for j in range(s.n):
        vals, counts = np.unique(s.values[:, j], return_counts=True)
        dists.append(make_discrete([0.0 if v == 0.0 else v for v in vals], counts / s.count))
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


def counted_empirical(d, counts, delta):
    """The dominated empirical prior of samples given as per-atom counts: counts[j][a] of bidder j's
    samples sit at d[j].support[a]. Each atom's inflated CDF is computed in scalars from a running count."""
    n, count = d.n, int(sum(counts[0]))
    coef = log(2.0 * n * count / delta)
    bottom = min(1.0, 4.0 * coef / count)
    dists = []
    for dj, cj in zip(d, counts):
        values, masses, below, at_most = [0.0], [bottom], bottom, 0
        for v, c in zip(dj.support.tolist(), cj):
            if c:
                at_most += int(c)
                emp = at_most / count
                cdf = min(1.0, emp + sqrt(2.0 * emp * (1.0 - emp) * coef / count) + 4.0 * coef / count)
                values.append(v)
                masses.append(cdf - below)
                below = cdf
        dists.append(make_discrete(values, masses))
    return ProductDist(tuple(dists))


def revenue_curve(d):
    """Breakpoints (0, 0), then (Pr[u >= v], Pr[u >= v] * v) per atom from the top down.

    Each tail is the scalar sum of the masses from the top atom down to v,
    except at the lowest atom, where it is the full mass 1, not its sum.
    """
    points, tail = [(0.0, 0.0)], 0.0
    support, probs = d.support.tolist(), d.probs.tolist()
    for j in reversed(range(len(support))):
        tail = 1.0 if j == 0 else tail + probs[j]
        points.append((tail, tail * support[j]))
    return tuple(points)


def monopoly(d):
    """Best price over the support by Python's max over (revenue, price): ties go to the larger price."""
    revenue, price = max((v * q, v) for v, q in zip(d.support.tolist(), d._above.tolist()))
    return price, revenue


def iron(breakpoints):
    """Upper concave envelope by one monotone-chain sweep over every breakpoint."""
    hull = []
    for q, r in breakpoints:
        while len(hull) >= 2:
            (q0, r0), (q1, r1) = hull[-2], hull[-1]
            # pop the middle point when it is on or below the chord
            if (q1 - q0) * (r - r0) - (r1 - r0) * (q - q0) >= 0.0:
                hull.pop()
            else:
                break
        hull.append((q, r))
    return tuple(hull)


def walk_slopes(d):
    """Envelope slopes of the support values, one pointer walking down the full chain's hull."""
    curve = revenue_curve(d)
    hull = iron(curve)
    slopes = []
    k = len(hull) - 2
    for q, _ in reversed(curve[:-1]):  # Pr[u > v] of each atom v, in ascending order of v
        while hull[k][0] > q:
            k -= 1
        (q0, r0), (q1, r1) = hull[k], hull[k + 1]
        slopes.append((r1 - r0) / (q1 - q0))
    return tuple(slopes)


def virtual_value(d, v):
    """The walked slope of the highest atom at most v; None, which sinks, below the lowest atom."""
    idx = bisect_right(d.support.tolist(), v) - 1
    return None if idx < 0 else walk_slopes(d)[idx]


def right_slope_at(bps, q):
    """Slope of the segment of the curve through breakpoints bps to the right of quantile q < 1."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"no right derivative at quantile {q!r}")
    idx = bisect_right([p[0] for p in bps], q) - 1
    (q0, r0), (q1, r1) = bps[idx], bps[idx + 1]
    return (r1 - r0) / (q1 - q0)


def virtual_slopes(d):
    """Right slope of the ironed revenue curve at Pr[u > v] of each support value v.

    Pr[u > v] of an atom is Pr[u >= v] of the next atom up, a quantile of
    the curve, and 0 for the top atom.
    """
    curve = revenue_curve(d)
    hull = iron(curve)
    m = len(d.support)
    return tuple(right_slope_at(hull, curve[m - 1 - j][0]) for j in range(m))


def run_starts(d):
    """Index of each atom whose ironed virtual value differs from the previous atom's, by a scan."""
    slopes = virtual_slopes(d)
    return tuple(j for j, s in enumerate(slopes) if j == 0 or s != slopes[j - 1])


def exact_virtual_values(support, probs):
    """Each atom's ironed virtual value in exact arithmetic, support and probs given as Fractions.

    The revenue curve is built from tails summed top down, the lowest one
    exactly 1 when probs sum to 1, its envelope by the same monotone chain
    as iron, and each atom's value is the envelope's right slope at
    Pr[u > v], as in virtual_slopes.
    """
    points, tail = [(Fraction(0), Fraction(0))], Fraction(0)
    for v, p in zip(reversed(support), reversed(probs)):
        tail += p
        points.append((tail, tail * v))
    hull = iron(points)
    return tuple(right_slope_at(hull, q) for q, _ in reversed(points[:-1]))


def exact_optimum(atoms, vertices):
    """Optimal expected revenue in exact arithmetic: the expected maximum of ironed virtual welfare.

    atoms holds one (support, probs) pair of Fraction sequences per bidder
    and vertices the 0/1 vectors of a binary system. Every profile of atoms
    is weighted by its probability; a bidder always sits on an atom, so no
    one is ever below its lowest value.
    """
    phis = [exact_virtual_values(s, p) for s, p in atoms]
    total = Fraction(0)
    for combo in product(*[range(len(s)) for s, _ in atoms]):
        prob = prod(p[j] for (_, p), j in zip(atoms, combo))
        total += prob * max(sum(phi[j] for x, phi, j in zip(v, phis, combo) if x) for v in vertices)
    return total


def ironing_intervals(d):
    """Envelope segments with a raw breakpoint strictly inside and 1e-12 below."""
    raw = revenue_curve(d)
    hull = iron(raw)
    out = []
    for (q0, r0), (q1, r1) in zip(hull, hull[1:]):
        slope = (r1 - r0) / (q1 - q0)
        if any(q0 < q < q1 and r0 + slope * (q - q0) - r > 1e-12 for q, r in raw):
            out.append((q0, q1))
    return out


def curves_report(d):
    """The curves report of d through json's pure-Python indenting encoder: json.dumps with sorted
    keys and indent 2 of the library's curves, ironing intervals and monopoly price."""
    price, revenue = dist.monopoly(d)
    payload = {
        "revenue_curve": dist._curve(d.support, d._above).T.tolist(),
        "ironed_curve": d._hull.tolist(),
        "ironing_intervals": [list(iv) for iv in dist.ironing_intervals(d)],
        "monopoly": {"price": price, "revenue": revenue},
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def scalar_cdf(d, v, left=False):
    """Pr[u <= v], or Pr[u < v] when left is set, summed left to right."""
    total = 0.0
    for s, p in zip(d.support.tolist(), d.probs.tolist()):
        if s < v or (s == v and not left):
            total += p
    return total


def checkpoint_pairs(a, b):
    """CDF pairs of a and b at each merged support point and at its left limit."""
    for v in sorted(set(a.support.tolist()) | set(b.support.tolist())):
        yield scalar_cdf(a, v), scalar_cdf(b, v)
        yield scalar_cdf(a, v, left=True), scalar_cdf(b, v, left=True)


def dominates(big, small):
    for bi, si in zip(big, small):
        for v in sorted(set(bi.support.tolist()) | set(si.support.tolist())):
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
    view = row_masks(fs)
    have = set(view)
    by_size = {}
    for m in view:
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


def members(mask):
    """Ascending positions of the set bits, testing every position up to the highest."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def row_masks(fs):
    """The distinct rows of a binary system's matrix as ascending bitmasks, one shift per 1."""
    rows = fs.vertices.tolist()
    if any(x not in (0.0, 1.0) for row in rows for x in row):
        raise ValueError("bitmasks need a binary system")
    return sorted({sum(1 << i for i, x in enumerate(row) if x) for row in rows})


def set_vertices(n, sets):
    """0/1 float tuples of the distinct sets in ascending bitmask order, masks built by shifts."""
    masks = sorted({sum(1 << i for i in set(s)) for s in sets})
    return [tuple(float(m >> i & 1) for i in range(n)) for m in masks]


def lexsorted(vertices):
    """The float matrix of the vertices in tie order, by one stable np.lexsort."""
    rows = np.array(vertices, dtype=float)
    order = np.lexsort((*rows.T[::-1], [-left_to_right_sum(v) for v in vertices]))
    return rows[order]


def left_to_right_sum(vertex):
    """A vertex's total summed left to right, uncompensated on every Python version."""
    out = 0.0
    for x in vertex:
        out += x
    return out


def tie_order(vertices):
    """Vertex indices in tie order, each placed by counting the vertices ranked ahead of it.

    Vertex i is ahead of j when its total allocation is larger, or equal with
    a lexicographically smaller vector, or the same vector at a lower index.
    """
    keys = [(-left_to_right_sum(v), v, j) for j, v in enumerate(vertices)]
    order = [None] * len(keys)
    for j, key in enumerate(keys):
        order[sum(other < key for other in keys)] = j
    return tuple(order)


def disjoint_union(parts):
    """Binary systems side by side: one feasible set per choice of a set from each part."""
    offsets = [sum(p.n for p in parts[:j]) for j in range(len(parts))]
    sets = [
        [i + off for m, off in zip(combo, offsets) for i in members(m)]
        for combo in product(*[row_masks(p) for p in parts])
    ]
    return from_independent_sets(sum(p.n for p in parts), sets)


def per_atom_auction(prior, fs):
    """myerson's auction with one cell per atom: cell c > 0 is atom c - 1 of the bidder's table.

    It holds no outcome tables, so every evaluation runs the kernel on lines of atoms, over
    term tables built from each atom's ironed virtual value.
    """
    a = myerson(prior, fs)
    width = max(len(d.support) for d in prior)
    pad = [width - len(d.support) for d in prior]
    phis = np.array([(0.0,) + walk_slopes(d) + (0.0,) * z for d, z in zip(prior, pad)])
    thresholds = np.array([tuple(d.support.tolist()) + (np.nan,) * (z + 1) for d, z in zip(prior, pad)])
    terms = _terms(phis[:, :, None], fs.vertices)[:, :, 0]  # a block of one prior
    return replace(a, _thresholds=thresholds, _terms=terms, _ranks=None, _outcomes=None)


def allocate(a, values):
    """Vertex maximizing ironed virtual welfare, scanned in tie order.

    Bidders below their prior's lowest atom get None and sink: vertices
    allocating to them are excluded while any other is left, and otherwise
    every vertex is ranked by the welfare of its non-sunk part.
    """
    verts = [tuple(v) for v in a.feasible.vertices.tolist()]
    order = tie_order(verts)
    phis = [virtual_value(d, v) for d, v in zip(a.prior, values)]
    sunk = [i for i, p in enumerate(phis) if p is None]
    candidates = [j for j in order if all(verts[j][i] <= 0.0 for i in sunk)]
    if candidates:
        eff = phis
    else:
        candidates = list(order)
        eff = [0.0 if p is None else p for p in phis]
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
        starts = [0.0] + [s for s in a.prior[i].support.tolist() if 0.0 < s <= vi]
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
    for combo in product(*[list(zip(d.support.tolist(), d.probs.tolist())) for d in eval_dist]):
        prob = 1.0
        for _, p in combo:
            prob *= p
        total += prob * sum(payments(a, tuple(v for v, _ in combo)))
    return total


def table_expectation(a, eval_dist):
    """Revenue and welfare of an auction with tables, by the padded (bidders, cells) mass matrix.

    Each bidder's atoms are looked up over its thresholds cut to its prior's
    run count, not over the NaN-padded row, and its cell masses are padded
    with zeros to the widest bidder's cells and sliced back to its table
    axis, which is contracted one leading axis at a time in bidder order.
    """
    mass = np.zeros(a._thresholds.shape)
    for i, (th, p, d) in enumerate(zip(a._thresholds, a.prior, eval_dist)):
        m = np.bincount(np.searchsorted(th[: len(p._runs)], d.support, "right"), d.probs)
        mass[i, : len(m)] = m
    table = a._outcomes
    for m, t in zip(mass, table.shape):
        table = m[:t] @ table.reshape(t, -1)
    return float(table[:-1].sum()), float(table[-1])


def expected_virtual_welfare(a, eval_dist):
    """Probability-weighted ironed virtual welfare over the full product of supports.

    A bidder below its prior's lowest atom counts 0, as in the allocation rule.
    """
    total = 0.0
    for combo in product(*[list(zip(d.support.tolist(), d.probs.tolist())) for d in eval_dist]):
        prob = 1.0
        for _, p in combo:
            prob *= p
        values = tuple(v for v, _ in combo)
        phis = [virtual_value(d, v) for d, v in zip(a.prior, values)]
        x = allocate(a, values)
        total += prob * sum(xi * p for xi, p in zip(x, phis) if p is not None)
    return total


def lb_family_regret(n, k, eps, trials, blocks):
    """lb-family's average regret on n <= 8 bidders, every trial learned and auctioned afresh.

    blocks(mi, t, member) is the sample matrix of trial t of family member
    mi, whose prior is member. Each trial learns its own dominated empirical
    prior and allocates at each profile where exactly one bidder bids 0;
    its regret there is the positive part of the all-serving vertex's
    virtual welfare, less that welfare where the learned auction serves.
    """
    shift = 48.0 * eps / (n * k)
    dminus = make_discrete([0.0, 1.0], [1.0 / n + shift, 1.0 - 1.0 / n - shift])
    dplus = make_discrete([0.0, 1.0], [1.0 / n - shift, 1.0 - 1.0 / n + shift])
    fs = all_or_nothing(n, k)
    profiles = [tuple(0.0 if j == i else 1.0 for j in range(n)) for i in range(n)]
    signs = list(product((0, 1), repeat=n))
    total = 0.0
    for mi, sign in enumerate(signs):
        member = ProductDist(tuple((dminus, dplus)[b] for b in sign))
        welfare = [(k / n) * sum(virtual_value(d, v) for d, v in zip(member, p)) for p in profiles]
        sums = [0.0] * n
        for t in range(trials):
            learned = dominated_empirical(blocks(mi, t, member), _LEARNER_DELTA)
            auction = SimpleNamespace(prior=learned, feasible=fs)  # all that allocate reads
            for i, p in enumerate(profiles):
                served = allocate(auction, p)[i] > 0.0
                sums[i] += max(0.0, welfare[i]) - (welfare[i] if served else 0.0)
        regret = 0.0
        for i, p in enumerate(profiles):
            prob = 1.0
            for d, v in zip(member, p):
                prob *= d.probs.tolist()[d.support.tolist().index(v)]
            regret += prob * sums[i] / trials
        total += regret
    return total / len(signs)
