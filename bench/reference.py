"""Reference computations for the benchmark's checks, written with numpy only.

Nothing here imports myersonlab. A distribution is a pair of arrays
(support ascending, masses); a feasible system is a matrix of vertices.
"""

from __future__ import annotations

import numpy as np


def tail_masses(probs) -> np.ndarray:
    """Pr[u >= v_j] for each atom j, ascending atom order."""
    return np.cumsum(np.asarray(probs, dtype=float)[::-1])[::-1]


def cdf_at(support, probs, points) -> np.ndarray:
    """Right-continuous CDF Pr[u <= x] at each point."""
    cum = np.concatenate(([0.0], np.cumsum(probs)))
    return cum[np.searchsorted(support, points, side="right")]


def cdf_left_at(support, probs, points) -> np.ndarray:
    """Left limit Pr[u < x] at each point."""
    cum = np.concatenate(([0.0], np.cumsum(probs)))
    return cum[np.searchsorted(support, points, side="left")]


def upper_hull(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Indices of the upper concave hull of points with increasing q.

    Gift wrapping: from each hull point, the next one is the farthest point
    reached by the steepest chord.
    """
    idx = [0]
    i = 0
    last = len(q) - 1
    while i < last:
        slopes = (r[i + 1 :] - r[i]) / (q[i + 1 :] - q[i])
        best = slopes.max()
        near = np.flatnonzero(slopes >= best - 1e-12 * max(1.0, abs(best)))
        i = i + 1 + int(near[-1])
        idx.append(i)
    return np.asarray(idx)


def revenue_points(support, probs) -> tuple[np.ndarray, np.ndarray]:
    """Revenue curve (0, 0) then (Pr[u >= v], v Pr[u >= v]) from the top atom down."""
    tail = tail_masses(probs)[::-1]
    vals = np.asarray(support, dtype=float)[::-1]
    q = np.concatenate(([0.0], tail))
    return q, np.concatenate(([0.0], vals * tail))


def ironed_virtual_values(support, probs) -> np.ndarray:
    """Ironed virtual value of each atom, ascending atom order.

    Atom j owns the quantile interval (Pr[u > v_j], Pr[u >= v_j]); its value
    is the slope of the hull edge covering that interval.
    """
    q, r = revenue_points(support, probs)
    hull = upper_hull(q, r)
    edge_slopes = np.diff(r[hull]) / np.diff(q[hull])
    m = len(support)
    points_from_top = np.arange(1, m + 1)
    edge = np.searchsorted(hull, points_from_top, side="left") - 1
    return edge_slopes[edge][::-1]


def virtual_value_at(support, phis, values) -> np.ndarray:
    """Ironed virtual value at arbitrary values; -inf below the lowest atom."""
    idx = np.searchsorted(support, values, side="right") - 1
    out = np.where(idx >= 0, np.asarray(phis)[np.maximum(idx, 0)], -np.inf)
    return out


def optimal_revenue(dists, vertices) -> float:
    """Expected maximum ironed virtual welfare over the vertices.

    dists is a list of (support, probs); the expectation runs over the
    product of the supports.
    """
    verts = np.asarray(vertices, dtype=float)
    n = len(dists)
    welfare = np.zeros((len(verts),) + tuple(len(s) for s, _ in dists))
    prob = np.ones(tuple(len(s) for s, _ in dists))
    for i, (support, probs) in enumerate(dists):
        shape = [1] * n
        shape[i] = len(support)
        phi = ironed_virtual_values(support, probs).reshape(shape)
        welfare = welfare + verts[:, i].reshape((-1,) + (1,) * n) * phi
        prob = prob * np.asarray(probs, dtype=float).reshape(shape)
    return float((welfare.max(axis=0) * prob).sum())


def dominated_empirical_cdf(column, n: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """CDF of the dominated empirical distribution of one coordinate's samples.

    Returns (points, cdf): the CDF is cdf[0] on [0, points[1]) and cdf[j] on
    [points[j], points[j+1]). It is the empirical CDF plus the inflation
    sqrt(2 F (1 - F) c / N) + 4 c / N with c = ln(2 n N / delta), clamped to
    1 and made nondecreasing; the mass below the lowest sample sits at 0.
    """
    count = len(column)
    c = np.log(2.0 * n * count / delta)
    vals, counts = np.unique(column, return_counts=True)
    emp = np.cumsum(counts) / count
    inflated = np.minimum(1.0, emp + np.sqrt(2.0 * emp * (1.0 - emp) * c / count) + 4.0 * c / count)
    inflated = np.maximum.accumulate(inflated)
    bottom = min(1.0, 4.0 * c / count)
    return np.concatenate(([0.0], vals)), np.concatenate(([bottom], inflated))


def dominates(big, small, tol: float = 1e-12) -> bool:
    """First-order dominance of products: big's CDF at most small's everywhere."""
    for (sb, pb), (ss, ps) in zip(big, small):
        pts = np.union1d(sb, ss)
        if np.any(cdf_at(sb, pb, pts) > cdf_at(ss, ps, pts) + tol):
            return False
    return True


def min_closeness_eps(a, b, n: float, k: float, tol: float = 1e-12) -> float:
    """Smallest eps at which every CDF checkpoint gap is within the closeness bound.

    The bound at a checkpoint is sqrt(var eps^2 / (4nk)) + eps^2 / (2nk) with
    var the smaller of the two Bernoulli variances there; checkpoints are
    the merged support points and their left limits.
    """
    worst = 0.0
    qa = 1.0 / (2.0 * n * k)
    for (sa, pa), (sb, pb) in zip(a, b):
        pts = np.union1d(sa, sb)
        fa = np.concatenate((cdf_at(sa, pa, pts), cdf_left_at(sa, pa, pts)))
        fb = np.concatenate((cdf_at(sb, pb, pts), cdf_left_at(sb, pb, pts)))
        gap = np.abs(fa - fb)
        keep = gap > tol
        if not keep.any():
            continue
        fa, fb, gap = fa[keep], fb[keep], gap[keep]
        var = np.maximum(0.0, np.minimum(fa * (1.0 - fa), fb * (1.0 - fb)))
        qb = np.sqrt(var / (4.0 * n * k))
        # root of qa e^2 + qb e - gap, in the form without cancellation
        eps = 2.0 * gap / (qb + np.sqrt(qb * qb + 4.0 * qa * gap))
        worst = max(worst, float(eps.max()))
    return worst


def monopoly_revenue(support, probs) -> float:
    """Best posted-price revenue max_j v_j Pr[u >= v_j]."""
    return float((np.asarray(support, dtype=float) * tail_masses(probs)).max())
