"""Myerson's optimal auction for a design prior over a feasible system.

The auction precomputes each bidder's ironed-virtual-value step function
from the prior, picks the vertex maximizing ironed virtual welfare, and
charges the threshold payments that make the allocation truthful. Both
depend on values only through each bidder's cell: cell 0 lies below the
prior's lowest atom and cell c > 0 is virtual-table segment c - 1.

Payments and expectations are read off lines: a line fixes the cells of
all bidders but one and runs that bidder's cell from 0 upward. One kernel
call finds the winner at every point of a block of lines, and a running
sum of threshold steps along each line gives the owner's payment at every
point. Exact expectations run, per bidder, one line for each cell profile
of the others, up to the bidder's highest occupied cell: sum_i
(profiles / |occupied_i|) * top_i kernel rows in place of profiles * n *
top. Auction objects hold read-only arrays and no other state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
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
        for phi, own, share in zip(a._phis, chunk.T, verts.T):
            welfare += phi[own][:, None] * share
        sunk = (chunk == 0) @ verts.T > 0.0
        best = np.where(sunk, -np.inf, welfare).argmax(axis=1)
        forced = sunk[np.arange(len(chunk)), best]  # every vertex allocates to a cell-0 bidder
        best[forced] = welfare[forced].argmax(axis=1)
        out[start : start + step] = best
    return out


def _sweep(
    a: Auction, lines: np.ndarray, owner: np.ndarray, tops: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Owner's allocation and threshold payment along each line of cells.

    Row l of the (lines, n) matrix fixes every bidder but owner[l], whose
    cell runs over 0..tops[l]-1; all rows of all lines go through one kernel
    call. Returns (lines, max(tops)) arrays; entries at or past a line's top
    are meaningless. By the payment identity a winner in cell c pays
    sum_k threshold[k-1] * (x[k] - x[k-1]) over k = 1..c, and a bidder
    allocated nothing pays nothing.
    """
    top = tops.max()
    own = np.arange(top)
    valid = own < tops[:, None]
    rows = lines.repeat(tops, axis=0)
    row_starts = np.arange(len(rows)) * rows.shape[1]  # flat index of each row's bidder 0
    rows.reshape(-1)[row_starts + owner.repeat(tops)] = (valid * own)[valid]
    wins = np.zeros(valid.shape, dtype=np.intp)
    wins[valid] = _winners(a, rows)
    x = a._verts[wins, owner[:, None]]
    pay = np.zeros(x.shape)
    ((x[:, 1:] - x[:, :-1]) * a._thresholds[owner, : top - 1]).cumsum(axis=1, out=pay[:, 1:])
    return x, np.where(x > 0.0, pay, 0.0)


def _payments(a: Auction, cells: np.ndarray) -> np.ndarray:
    """Threshold payments at each row of a (rows, n) cell matrix.

    Each bidder's line runs from its cell 0 up to its own cell in the row.
    """
    rows, n = cells.shape
    own = cells.reshape(-1)
    _, pay = _sweep(a, cells.repeat(n, axis=0), np.tile(np.arange(n), rows), own + 1)
    return pay[np.arange(rows * n), own].reshape(rows, n)


def _cells(a: Auction, profiles) -> np.ndarray:
    """Cells of a (rows, n) matrix of value profiles."""
    values = zip(a.virtual_tables, np.asarray(profiles, dtype=float).T, strict=True)
    return np.column_stack([np.searchsorted(t.thresholds, v, side="right") for t, v in values])


def allocate(a: Auction, values) -> tuple[float, ...]:
    """Vertex maximizing ironed virtual welfare at the given value profile.

    Vertices giving positive allocation to a bidder below its prior's
    lowest atom are excluded while any alternative exists.
    """
    return tuple(a._verts[_winners(a, _cells(a, [values]))[0]].tolist())


def payments(a: Auction, values) -> tuple[float, ...]:
    """Threshold payments: p_i = v_i x_i - integral of x_i over own-value deviations.

    x_i as a function of own value is a step function whose breakpoints are
    the prior's support values, so the integral is an exact finite sum.
    """
    return tuple(_payments(a, _cells(a, [values]))[0].tolist())


def revenue_on_profile(a: Auction, values) -> float:
    return sum(payments(a, values))


def _expectation(a: Auction, dist: ProductDist, cap: float) -> tuple[float, float]:
    """Expected revenue and expected ironed virtual welfare under dist.

    Atoms of one bidder that fall into the same cell are merged. Bidder i's
    terms are summed along its lines, one for each cell profile of the
    others, weighted by that profile's probability and, at each own cell up
    to i's highest occupied one, by that cell's mass. Blocks of lines, in
    order of owner and then of the others' profile, share one sweep.
    """
    if dist.n != a.feasible.n:
        raise ValueError(f"evaluation distribution has {dist.n} bidders, need {a.feasible.n}")
    mass = np.zeros(a._phis.shape)
    tops = []
    for i, (t, d) in enumerate(zip(a.virtual_tables, dist)):
        m = np.bincount(np.searchsorted(t.thresholds, d.support, side="right"), weights=d.probs)
        mass[i, : len(m)] = m
        tops.append(len(m))
    held = mass > 0.0
    sizes = held.sum(axis=1).tolist()
    count = prod(sizes)
    if count > cap:
        raise EnumerationCapError(f"{count} cell profiles exceed cap {cap}")
    bidders = np.arange(len(sizes))
    cells = (~held).argsort(axis=1, kind="stable")  # each row's occupied cells first, in order
    top = max(tops)
    tops = np.array(tops)
    mass = mass[:, :top]
    mass_phi = mass * a._phis[:, :top]
    # Profiles of occupied cells are numbered row-major, with strides[k]
    # per step of bidder k. Bidder i's line j starts at the profile whose
    # number, with i's own digit 0, is j + (j // strides[i]) * skips[i].
    strides = np.array([prod(sizes[k + 1 :]) for k in range(len(sizes))])
    skips = strides * (np.array(sizes) - 1)
    starts = np.array(list(accumulate((count // z for z in sizes), initial=0)))
    revenue = welfare = 0.0
    step = max(1, _BLOCK // mass.size)
    for first in range(0, starts[-1], step):
        line = np.arange(first, min(first + step, starts[-1]))
        owner = starts.searchsorted(line, side="right") - 1
        j = line - starts[owner]
        number = j + j // strides[owner] * skips[owner]
        lines = cells[bidders, number[:, None] // strides % sizes]
        weights = mass[bidders, lines]
        weights[np.arange(len(line)), owner] = 1.0  # the owner's cell is swept, not fixed
        weights = weights.prod(axis=1)
        x, pay = _sweep(a, lines, owner, tops[owner])
        width = x.shape[1]  # the block's highest top, which may fall short of top
        revenue += weights @ (pay * mass[owner, :width]).sum(axis=1)
        welfare += weights @ (x * mass_phi[owner, :width]).sum(axis=1)
    return float(revenue), float(welfare)


def expected_revenue(a: Auction, eval_dist: ProductDist, cap: int = 10_000_000) -> float:
    """Exact expected revenue under eval_dist, enumerating its distinct cell profiles."""
    return _expectation(a, eval_dist, cap)[0]


def expected_virtual_welfare(a: Auction) -> float:
    """Expected ironed virtual welfare of the auction under its own prior.

    Equals expected revenue under the prior; under a foreign distribution
    the identity can break, so revenue there is always taken from payments.
    """
    return _expectation(a, a.prior, inf)[1]


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
    step = max(1, _BLOCK // (a._phis.size * len(a._phis)))  # n lines of at most one row per cell
    blocks = (distinct[r : r + step] for r in range(0, len(distinct), step))
    revs = np.concatenate([_payments(a, b).sum(axis=1) for b in blocks])[which.reshape(-1)]
    mean = float(revs.mean())
    stderr = 0.0 if trials == 1 else float(revs.std(ddof=1) / sqrt(trials))
    return mean, stderr


def opt_revenue(d: ProductDist, fs: FeasibleSet, cap: int = 10_000_000) -> float:
    """Optimal expected revenue for prior d, with an internal identity check.

    Revenue from payments must match expected ironed virtual welfare; a
    divergence beyond 1e-9 signals an allocation or payment bug.
    """
    rev, welfare = _expectation(myerson(d, fs), d, cap)
    if abs(rev - welfare) > IDENTITY_TOL:
        raise CrossCheckError(
            f"revenue {rev!r} and ironed virtual welfare {welfare!r} diverge"
        )
    return rev
