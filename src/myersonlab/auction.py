"""Myerson's optimal auction for a design prior over a feasible system.

The auction precomputes each bidder's ironed-virtual-value step function
from the prior, picks the vertex maximizing ironed virtual welfare, and
charges the threshold payments that make the allocation truthful. Both
depend on values only through each bidder's cell: cell 0 lies below the
prior's lowest atom and cell c > 0 is virtual-table segment c - 1. Every
evaluation, exact or Monte Carlo, runs blocks of cell profiles through one
kernel. Auction objects hold read-only arrays and no other state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, prod, sqrt

import numpy as np

from .curves import VirtualTable, virtual_table
from .dist import ProductDist
from .feasible import FeasibleSet
from .learn import draw_samples

IDENTITY_TOL = 1e-9
# Numbers held at once per block of cell profiles and per kernel chunk;
# bounds the working memory of every evaluation.
_BLOCK = 1 << 14


class EnumerationCapError(ValueError):
    """Exact enumeration would exceed the configured profile cap."""


class CrossCheckError(RuntimeError):
    """Payment revenue and virtual welfare disagree beyond tolerance."""


@dataclass(frozen=True, eq=False)
class Auction:
    """The optimal auction and the read-only arrays myerson derives from it once.

    _verts holds the vertices ranked in tie_order, one per row. For bidder
    i, _phis[i, c] is the ironed virtual value in cell c (0 in cell 0) and
    _thresholds[i, c - 1] the lowest value in cell c > 0; both rows are
    padded with zeros to the longest support.
    """

    prior: ProductDist
    feasible: FeasibleSet
    virtual_tables: tuple[VirtualTable, ...]
    tie_order: tuple[int, ...]
    _verts: np.ndarray = field(repr=False)
    _phis: np.ndarray = field(repr=False)
    _thresholds: np.ndarray = field(repr=False)


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
    verts = np.array([fs.vertices[j] for j in order], order="F")
    width = max(len(t.slopes) for t in tables)
    phis = np.array([(0.0,) + t.slopes + (0.0,) * (width - len(t.slopes)) for t in tables])
    thresholds = np.array([t.thresholds + (0.0,) * (width - len(t.thresholds)) for t in tables])
    for arr in (verts, phis, thresholds):
        arr.setflags(write=False)
    return Auction(prior, fs, tables, order, verts, phis, thresholds)


def _winners(a: Auction, cells: np.ndarray) -> np.ndarray:
    """Rank in tie_order of the winning vertex at each row of a (rows, n) cell matrix.

    Vertices are scanned in tie order, and one replaces the incumbent only
    when strictly better: first on giving nothing to bidders in cell 0,
    then on ironed virtual welfare summed over bidders left to right, with
    cell 0 counting as 0.
    """
    verts = a._verts
    step = max(1, _BLOCK // (len(verts) + cells.shape[1]))
    out = np.empty(len(cells), dtype=np.intp)
    for start in range(0, len(cells), step):
        chunk = cells[start : start + step]
        welfare = np.zeros((len(chunk), len(verts)))
        for i, phi in enumerate(a._phis):
            welfare += phi[chunk[:, i], None] * verts[:, i]
        sunk = (chunk == 0).astype(float) @ verts.T > 0.0
        best = np.where(sunk, -np.inf, welfare).argmax(axis=1)
        forced = sunk[np.arange(len(chunk)), best]  # every vertex allocates to a cell-0 bidder
        best[forced] = welfare[forced].argmax(axis=1)
        out[start : start + step] = best
    return out


def _rows_per_block(a: Auction) -> int:
    """Rows whose own-cell sweeps hold at most _BLOCK cell indices, n per swept cell."""
    return max(1, _BLOCK // (a._phis.size * len(a._phis)))


def _outcomes(a: Auction, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Allocations and threshold payments at each row of a (rows, n) cell matrix.

    The rows go through one kernel call together with every bidder's sweep
    over its own cells, the others held fixed; callers pass at most
    _rows_per_block rows. By the payment identity a winner pays
    sum_k threshold[k-1] * (x_i[k] - x_i[k-1]) over k = 1..c_i, and a bidder
    allocated nothing pays nothing.
    """
    rows, n = cells.shape
    bidders = np.arange(n)
    top = cells.max() + 1
    # sweeps[r, i, k] is row r with bidder i's cell set to k
    sweeps = np.repeat(cells[:, None, :], n * top, axis=1).reshape(rows, n, top, n)
    sweeps[:, bidders, :, bidders] = np.arange(top)
    wins = _winners(a, sweeps.reshape(-1, n)).reshape(rows, n, top)
    x = a._verts[wins[np.arange(rows), 0, cells[:, 0]]]
    steps = np.diff(a._verts[wins, bidders[:, None]], axis=2) * a._thresholds[:, : top - 1]
    steps[np.arange(1, top) > cells[:, :, None]] = 0.0
    return x, np.where(x > 0.0, steps.sum(axis=2), 0.0)


def _cells(a: Auction, profiles) -> np.ndarray:
    """Cells of a (rows, n) matrix of value profiles."""
    values = zip(a.virtual_tables, np.asarray(profiles, dtype=float).T, strict=True)
    return np.column_stack([np.searchsorted(t.thresholds, v, side="right") for t, v in values])


def allocate(a: Auction, values) -> tuple[float, ...]:
    """Vertex maximizing ironed virtual welfare at the given value profile.

    Vertices giving positive allocation to a bidder below its prior's
    lowest atom are excluded while any alternative exists.
    """
    x, _ = _outcomes(a, _cells(a, [values]))
    return tuple(x[0].tolist())


def payments(a: Auction, values) -> tuple[float, ...]:
    """Threshold payments: p_i = v_i x_i - integral of x_i over own-value deviations.

    x_i as a function of own value is a step function whose breakpoints are
    the prior's support values, so the integral is an exact finite sum.
    """
    _, pay = _outcomes(a, _cells(a, [values]))
    return tuple(pay[0].tolist())


def revenue_on_profile(a: Auction, values) -> float:
    return sum(payments(a, values))


def _expectation(a: Auction, dist: ProductDist, cap: float) -> np.ndarray:
    """Expected revenue and expected ironed virtual welfare under dist.

    Atoms of one bidder that fall into the same cell are merged, and the
    distinct cell profiles are enumerated in blocks of rows.
    """
    if dist.n != a.feasible.n:
        raise ValueError(f"evaluation distribution has {dist.n} bidders, need {a.feasible.n}")
    axes = []
    for t, d in zip(a.virtual_tables, dist):
        mass = np.bincount(np.searchsorted(t.thresholds, d.support, side="right"), weights=d.probs)
        occupied = np.flatnonzero(mass)
        axes.append((occupied, mass[occupied]))
    shape = tuple(len(c) for c, _ in axes)
    count = prod(shape)
    if count > cap:
        raise EnumerationCapError(f"{count} cell profiles exceed cap {cap}")
    bidders = np.arange(a.feasible.n)
    total = np.zeros(2)
    step = _rows_per_block(a)
    for start in range(0, count, step):
        idx = np.unravel_index(np.arange(start, min(start + step, count)), shape)
        cells = np.column_stack([c[j] for (c, _), j in zip(axes, idx)])
        probs = np.prod([p[j] for (_, p), j in zip(axes, idx)], axis=0)
        x, pay = _outcomes(a, cells)
        welfare = (x * a._phis[bidders, cells]).sum(axis=1)
        total += probs @ np.column_stack([pay.sum(axis=1), welfare])
    return total


def expected_revenue(a: Auction, eval_dist: ProductDist, cap: int = 10_000_000) -> float:
    """Exact expected revenue under eval_dist, enumerating its distinct cell profiles."""
    return float(_expectation(a, eval_dist, cap)[0])


def expected_virtual_welfare(a: Auction) -> float:
    """Expected ironed virtual welfare of the auction under its own prior.

    Equals expected revenue under the prior; under a foreign distribution
    the identity can break, so revenue there is always taken from payments.
    """
    return float(_expectation(a, a.prior, inf)[1])


def expected_revenue_mc(
    a: Auction, eval_dist: ProductDist, trials: int, seed
) -> tuple[float, float]:
    """Seeded Monte Carlo estimate of expected revenue: (mean, stderr).

    Profiles come from draw_samples, so results are deterministic given the
    seed. Each distinct cell profile among the samples is evaluated once.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    cells = _cells(a, draw_samples(eval_dist, trials, seed).values)
    distinct, which = np.unique(cells, axis=0, return_inverse=True)
    step = _rows_per_block(a)
    blocks = (distinct[r : r + step] for r in range(0, len(distinct), step))
    revs = np.concatenate([_outcomes(a, b)[1].sum(axis=1) for b in blocks])[which.reshape(-1)]
    mean = float(revs.mean())
    stderr = 0.0 if trials == 1 else float(revs.std(ddof=1) / sqrt(trials))
    return mean, stderr


def opt_revenue(d: ProductDist, fs: FeasibleSet, cap: int = 10_000_000) -> float:
    """Optimal expected revenue for prior d, with an internal identity check.

    Revenue from payments must match expected ironed virtual welfare; a
    divergence beyond 1e-9 signals an allocation or payment bug.
    """
    rev, welfare = _expectation(myerson(d, fs), d, cap).tolist()
    if abs(rev - welfare) > IDENTITY_TOL:
        raise CrossCheckError(
            f"revenue {rev!r} and ironed virtual welfare {welfare!r} diverge"
        )
    return rev
