"""Myerson's optimal auction for a design prior over a feasible system.

The auction reads each bidder's ironed virtual values and run starts off
the prior, which derived them when it was built, picks the vertex
maximizing ironed virtual welfare, and charges the threshold payments
that make the allocation truthful. Both depend on values only through
each bidder's cell: cell 0 lies below the prior's lowest atom, and cell
c > 0 is the c-th run of adjacent atoms with equal ironed virtual value,
such as the atoms of one ironed interval. A matrix of value profiles maps
to cells by one searchsorted per bidder over its run thresholds.

Each bidder's term table has a row per cell and a column per vertex,
phi_i[c] * x_vi, but -inf in cell 0 wherever the vertex gives bidder i
anything. With the terms summed over bidders left to right from +0.0,
the first argmax over the vertices, which are in tie order, reproduces
the rule: a vertex giving nothing to bidders in cell 0 first, then
ironed virtual welfare, ties to the earlier row. A point with every
vertex at -inf, possible only without a zero vertex, is decided again on
plain welfare, cell 0 counting as 0. Along a line one bidder's cell runs
from 0 upward while the others stay fixed, and a running sum of
threshold steps gives that bidder's payment at every point. When the
grid of every bidder's cells fits one block (the product over bidders of
runs_i + 1 cells, times vertices + bidders, at most _BLOCK), myerson
scores it once and keeps outcome tables over its cell profiles, 64 of
them for three bidders whose ten atoms form three runs each, with the
scorer's welfare as the welfare column. allocate and payments look
outcomes up there, and exact expectations contract the tables with the
bidders' cell masses. Other auctions run lines: for each bidder, one
line per profile of the others' occupied cells, in blocks. Auctions hold
read-only arrays and no other state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .dist import ProductDist
from .feasible import FeasibleSet

IDENTITY_TOL = 1e-9
# Numbers held at once per block of cell profiles and per kernel chunk;
# bounds the working memory of every evaluation.
_BLOCK = 1 << 14
_CAP = 10_000_000  # most distinct cell profiles an exact expectation enumerates


class EnumerationCapError(ValueError):
    """Exact enumeration would exceed _CAP distinct cell profiles."""


class CrossCheckError(RuntimeError):
    """Payment revenue and virtual welfare disagree beyond tolerance."""


@dataclass(frozen=True, eq=False)
class Auction:
    """The optimal auction and the read-only arrays myerson derives from it once.

    The rows of feasible._ranked are the vertices in myerson's tie order. Bidder
    i has _runs[i] cells above 0, one per run of equal ironed virtual value;
    _phis[i, c] is that value in cell c (0 in cell 0) and _thresholds[i, c - 1]
    the value of the run's first atom. Both rows are padded with zeros. The
    outcome tables, None when the grid does not fit, are indexed by a cell
    profile: _ranks holds the winner's row of _ranked, _outcomes[..., i]
    bidder i's payment and _outcomes[..., n] the ironed virtual welfare.
    """

    prior: ProductDist
    feasible: FeasibleSet
    _phis: np.ndarray = field(repr=False)
    _thresholds: np.ndarray = field(repr=False)
    _runs: tuple[int, ...] = field(repr=False)
    _ranks: np.ndarray | None = field(default=None, repr=False)
    _outcomes: np.ndarray | None = field(default=None, repr=False)


def myerson(prior: ProductDist, fs: FeasibleSet) -> Auction:
    """Build the optimal auction for the prior over the feasible system.

    Welfare ties between vertices are broken by the order of the rows of
    fs._ranked, a fixed value-independent order: descending total allocation,
    then ascending lexicographic. Any fixed order keeps the per-bidder
    allocation monotone in own value. When the grid of every bidder's cells
    fits a block, one _score call over each bidder's term table, laid along
    its own axis, fills the outcome tables' ranks and welfare column.
    """
    if prior.n != fs.n:
        raise ValueError(f"prior has {prior.n} bidders, system has {fs.n}")
    runs = [d._runs for d in prior]  # one cell per run of atoms with equal slopes
    phis, thresholds = np.zeros((2, len(runs), max(map(len, runs)) + 1))
    for i, (d, starts) in enumerate(zip(prior, runs)):
        phis[i, 1 : len(starts) + 1] = [d._slopes[j] for j in starts]
        thresholds[i, : len(starts)] = [d.support[j] for j in starts]
    for arr in (phis, thresholds):
        arr.setflags(write=False)
    fields = prior, fs, phis, thresholds, tuple(map(len, runs))
    n = len(runs)
    if prod(len(r) + 1 for r in runs) * (len(fs.vertices) + n) > _BLOCK:
        return Auction(*fields)
    # bidder i's term rows for cells 0..runs_i along grid axis i
    terms, along = _terms(phis, fs._ranked), (-1,) + (1,) * (n - 1)
    ranks, welfare = _score([
        t[: len(r) + 1].reshape((1,) * i + along[: n - i] + t.shape[-1:])
        for i, (t, r) in enumerate(zip(terms, runs))
    ])
    outcomes = np.empty(ranks.shape + (n + 1,))
    outcomes[..., n] = welfare
    del welfare  # not held through the payment loop, where the build's memory peaks
    x = fs._ranked[ranks]
    for i, (r, th) in enumerate(zip(runs, thresholds)):
        own, pay = x[..., i].swapaxes(0, i), outcomes[..., i].swapaxes(0, i)
        _pay(own, th[: len(r)].reshape(along), pay)
    for arr in (ranks, outcomes):
        arr.setflags(write=False)
    return Auction(*fields, ranks, outcomes)


def _terms(phis: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Each bidder's term table: [i, c, v] is phis[i, c] * verts[v, i], -inf in cell 0 if verts[v, i] > 0."""
    terms = phis[:, :, None] * verts.T[:, None, :]
    terms[:, 0][verts.T > 0.0] = -np.inf
    return terms


def _score(terms) -> tuple[np.ndarray, np.ndarray]:
    """Winning row of the tie order and its welfare at each point of n term arrays.

    terms[i] holds bidder i's term rows, vertices last; the arrays broadcast
    to one shape. Where every vertex sums to -inf, the -inf terms count as 0.
    """
    score = sum(terms, 0.0)
    best = score.argmax(axis=-1)
    welfare = score.reshape(-1)[best + np.arange(0, score.size, score.shape[-1]).reshape(best.shape)]
    forced = welfare == -np.inf
    if forced.any():
        plain = sum((np.where(t == -np.inf, 0.0, t) for t in terms), 0.0)[forced]
        best[forced] = plain.argmax(axis=-1)
        welfare[forced] = plain.max(axis=-1)
    return best, welfare


def _winners(a: Auction, cells) -> np.ndarray:
    """Row of feasible._ranked that wins at each point of n per-bidder cell arrays.

    cells[i] holds bidder i's cells; the n arrays broadcast to one shape,
    which is the shape of the result. Each bidder's term table is indexed
    by its own cell array, and _score picks the winner, falling back to
    plain welfare where no vertex spares the bidders in cell 0. Points
    beyond a block are scored in flat chunks of rows.
    """
    terms = _terms(a._phis, a.feasible._ranked)
    # a list, not a generator: unpacking a generator builds the argument tuple by resizing,
    # and each one freed then stays on CPython's tuple free list, which tracemalloc counts
    shape = np.broadcast_shapes(*[np.shape(c) for c in cells])
    step = max(1, _BLOCK // (terms.shape[-1] + len(cells)))
    if prod(shape) <= step:
        return _score([t[c] for t, c in zip(terms, cells)])[0]
    flat = [np.broadcast_to(c, shape).reshape(-1) for c in cells]
    rows = range(0, prod(shape), step)
    chunks = [_score([t[c[r : r + step]] for t, c in zip(terms, flat)])[0] for r in rows]
    return np.concatenate(chunks).reshape(shape)


def _pay(x: np.ndarray, thresholds: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Threshold payments of a bidder whose cell runs from 0 upward along the first axis of x.

    x is its allocation and thresholds[k - 1] the lowest value of its cell
    k, broadcast against x[k]. By the payment identity a winner in cell c
    pays sum_k threshold[k-1] * (x[k] - x[k-1]) over k = 1..c, and a bidder
    allocated nothing pays nothing. The payments go to out, if given.
    """
    pay = np.empty(x.shape) if out is None else out
    pay[0] = 0.0
    ((x[1:] - x[:-1]) * thresholds).cumsum(axis=0, out=pay[1:])
    pay[x <= 0.0] = 0.0
    return pay


def _payments(a: Auction, cells: np.ndarray) -> np.ndarray:
    """Threshold payments at each row of a (rows, n) cell matrix, read off the tables if any.

    Otherwise bidder i's line steps its cell over runs, from 0 to the rows'
    highest cell, against the others' cells in the row. One kernel call
    scores the lines of every bidder and row, on axes (own cell, whose
    line, row).
    """
    if a._outcomes is not None:
        return a._outcomes[tuple(cells.T)][:, :-1]
    whose = np.arange(cells.shape[1])[:, None]
    own = np.arange(cells.max() + 1)[:, None, None]
    wins = _winners(a, [np.where(whose == k, own, c) for k, c in enumerate(cells.T)])
    pay = _pay(a.feasible._ranked[wins, whose], a._thresholds[:, : len(own) - 1].T[:, :, None])
    return np.take_along_axis(pay, cells.T[None], axis=0)[0].T


def _cells(a: Auction, profiles) -> np.ndarray:
    """Cells of a (rows, n) matrix of value profiles, which must not hold NaN."""
    profiles = np.asarray(profiles, dtype=float)
    if profiles.ndim != 2 or profiles.shape[1] != len(a._runs):
        raise ValueError(f"a value profile of shape {profiles.shape[1:]} for {len(a._runs)} bidders")
    if np.isnan(profiles).any():
        raise ValueError("a value profile holds NaN")
    cells = np.empty(profiles.shape, dtype=np.intp)
    for i, (th, m) in enumerate(zip(a._thresholds, a._runs)):
        cells[:, i] = th[:m].searchsorted(profiles[:, i], side="right")
    return cells


def allocate(a: Auction, values) -> tuple[float, ...]:
    """Vertex maximizing ironed virtual welfare at the given value profile.

    Vertices giving positive allocation to a bidder below its prior's
    lowest atom are excluded while any alternative exists.
    """
    cells = _cells(a, [values])
    ranks = _winners(a, cells.T) if a._ranks is None else a._ranks[tuple(cells.T)]
    return tuple(a.feasible._ranked[ranks[0]].tolist())


def payments(a: Auction, values) -> tuple[float, ...]:
    """Threshold payments: p_i = v_i x_i - integral of x_i over own-value deviations.

    x_i as a function of own value is a step function whose breakpoints are
    the prior's support values, so the integral is an exact finite sum.
    """
    return tuple(_payments(a, _cells(a, [values]))[0].tolist())


def _expectation(a: Auction, dist: ProductDist) -> tuple[float, float]:
    """Expected revenue and expected ironed virtual welfare under dist.

    Atoms of one bidder that fall into the same cell, a run of the prior,
    are merged, and _CAP bounds the distinct occupied run profiles. An
    auction with tables contracts its payment and welfare tables with each
    bidder's cell masses, one axis at a time. Otherwise bidder i, whose
    highest occupied cell is top_i - 1, runs one line over its cells for
    each profile of the others' occupied cells, in chunks that fit a block,
    and each point is weighted by the mass of its cells.
    """
    if dist.n != a.feasible.n:
        raise ValueError(f"evaluation distribution has {dist.n} bidders, need {a.feasible.n}")
    mass = np.zeros(a._phis.shape)
    tops = []
    for i, (th, runs, d) in enumerate(zip(a._thresholds, a._runs, dist)):
        m = np.bincount(np.searchsorted(th[:runs], d._support, "right"), d.probs)
        mass[i, : len(m)] = m
        tops.append(len(m))
    held = mass > 0.0
    sizes = held.sum(axis=1).tolist()
    count = prod(sizes)
    if count > _CAP:
        raise EnumerationCapError(f"{count} cell profiles exceed cap {_CAP}")
    if a._outcomes is not None:
        table = a._outcomes
        for m, t in zip(mass, table.shape):  # contract the leading axis, one bidder's cells
            table = m[:t] @ table.reshape(t, -1)
        return float(table[:-1].sum()), float(table[-1])
    n, width = len(tops), len(a.feasible.vertices) + len(tops)
    revenue = welfare = 0.0
    bidders = np.arange(n)
    occupied = (~held).argsort(axis=1, kind="stable")  # each row's occupied cells first, in order
    for i, t in enumerate(tops):
        others = sizes.copy()
        others[i] = 1  # profiles of the others' occupied cells, numbered row-major
        lines, step = count // sizes[i], max(1, _BLOCK // (t * width))
        for first in range(0, lines, step):
            digits = np.unravel_index(np.arange(first, min(first + step, lines)), others)
            cells = occupied[bidders, np.transpose(digits)]
            weights = mass[bidders, cells]
            weights[:, i] = 1.0  # i's own cell runs along the line
            cells = list(cells.T)
            cells[i] = np.arange(t)[:, None]
            x = a.feasible._ranked[:, i][_winners(a, cells)]
            weights = weights.prod(axis=1) * mass[i, :t, None]
            revenue += np.vdot(weights, _pay(x, a._thresholds[i, : t - 1, None]))
            welfare += np.vdot(weights, x * a._phis[i, :t, None])
    return float(revenue), float(welfare)


def expected_revenue(a: Auction, eval_dist: ProductDist) -> float:
    """Exact expected revenue under eval_dist, enumerating at most _CAP distinct cell profiles."""
    return _expectation(a, eval_dist)[0]


def expected_virtual_welfare(a: Auction) -> float:
    """Expected ironed virtual welfare of the auction under its own prior.

    Equals expected revenue under the prior; under a foreign distribution
    the identity can break, so revenue there is always taken from payments.
    Past _CAP distinct cell profiles it raises EnumerationCapError.
    """
    return _expectation(a, a.prior)[1]


def opt_revenue(d: ProductDist, fs: FeasibleSet) -> float:
    """Optimal expected revenue for prior d, with an internal identity check.

    Revenue from payments must match expected ironed virtual welfare; a
    divergence beyond 1e-9 signals an allocation or payment bug.
    """
    rev, welfare = _expectation(myerson(d, fs), d)
    if abs(rev - welfare) > IDENTITY_TOL:
        raise CrossCheckError(
            f"revenue {rev!r} and ironed virtual welfare {welfare!r} diverge"
        )
    return rev
