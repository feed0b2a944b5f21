"""Myerson's optimal auction for a design prior over a feasible system.

The auction reads each bidder's ironed virtual values and run starts off
the prior, which derived them when it was built, picks the vertex
maximizing ironed virtual welfare, and charges the threshold payments
that make the allocation truthful. Both depend on values only through
each bidder's cell: cell 0 lies below the prior's lowest atom, and cell
c > 0 is the c-th run of adjacent atoms with equal ironed virtual value,
such as the atoms of one ironed interval. A value's cell is the count of
its bidder's run thresholds at or below it, in a row padded with NaN past
the last run, which no value reaches.

myerson builds each bidder's term table, which the auction keeps: a row
per cell and a column per vertex, phi_i[c] * x_vi, but -inf in cell 0
wherever the vertex gives bidder i anything. One scorer, _winners, reads
the tables at a cell array per bidder, the arrays broadcasting together:
a grid axis each, a line (the bidder's own cells on one axis, the others'
rows on the other) or one point. With the terms summed over bidders left
to right from +0.0, the first argmax over the vertices, which are in tie
order, reproduces the rule: a vertex giving nothing to bidders in cell 0
first, then ironed virtual welfare, ties to the earlier row. A point with
every vertex at -inf, possible only without a zero vertex, is decided
again on plain welfare, cell 0 counting as 0. Along a line one bidder's
cell runs up from 0, the others' stay fixed, and a running sum of
threshold steps gives its payment at every point. When the grid of every
bidder's cells fits one block (the product over bidders of runs_i + 1
cells, times vertices + bidders, at most _BLOCK), myerson scores it once
and keeps outcome tables over its cell profiles, 64 of them for three
bidders whose ten atoms form three runs each, with the scorer's welfare
as the welfare column. allocate and payments look outcomes up there, and
exact expectations contract the tables with the bidders' cell masses.
Other auctions run lines: a payment each bidder's up to its own cell, an
expectation one per profile of the others' occupied cells, in blocks,
welfare off bidder 0's lines. An auction holds its prior, system,
thresholds, term tables and outcome tables if any.

Auctions are built in blocks, since a trial loop builds many small ones,
where numpy's fixed cost per call dominates: _auctions takes a list of
priors and fills the arrays of a run of consecutive ones at once, while
their tables, over the most cells each bidder has in any of them, fit
_BLOCK. Every array carries a prior axis just before the vertices, and
one _winners call and a _pay per bidder fill all of them, with the same
sums in the same order whatever the block. Each auction holds read-only
views of its own slices, which end before the pad cells of the priors
with fewer runs. myerson builds a block of one prior. A block with tables
is also read at once: _expected_revenues finds every auction's cell
masses under a distribution with one comparison and one bincount per
bidder, and _allocations every auction's winners at given profiles with
one gather of the block's ranks.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .dist import ProductDist
from .feasible import FeasibleSet

IDENTITY_TOL = 1e-9
_BLOCK = 1 << 14  # most numbers a block of cell profiles holds at once
_CAP = 10_000_000  # most distinct cell profiles an exact expectation enumerates


class EnumerationCapError(ValueError):
    """Exact enumeration would exceed _CAP distinct cell profiles."""


class CrossCheckError(RuntimeError):
    """Payment revenue and virtual welfare disagree beyond tolerance."""


@dataclass(frozen=True, eq=False)
class Auction:
    """The optimal auction: its prior, its system and the read-only arrays myerson derives once.

    The rows of feasible.vertices are in myerson's tie order. Bidder i has a
    cell above 0 per run of equal ironed virtual value; _thresholds[i, c - 1]
    is the value of the run's first atom and _terms[i] bidder i's term table,
    which _winners reads at an array of its cells, padded past its last run
    with NaN in _thresholds and zeros in _terms. The outcome tables, None
    when the grid does not fit, are indexed by a cell profile: _ranks holds
    the winner's row of vertices, _outcomes[..., i] bidder i's payment and
    _outcomes[..., n] the welfare. Each is a view of its block's array, the
    same in shape and bytes whatever the block.
    """

    prior: ProductDist
    feasible: FeasibleSet
    _thresholds: np.ndarray = field(repr=False)
    _terms: np.ndarray = field(repr=False)
    _ranks: np.ndarray | None = field(default=None, repr=False)
    _outcomes: np.ndarray | None = field(default=None, repr=False)


def myerson(prior: ProductDist, fs: FeasibleSet) -> Auction:
    """Build the optimal auction for the prior over the feasible system.

    Welfare ties between vertices are broken by the order of the rows of
    fs.vertices, a fixed value-independent order: descending total allocation,
    then ascending lexicographic. Any fixed order keeps the per-bidder
    allocation monotone in own value. It is a block of one prior.
    """
    return _block([prior], [len(d._runs) + 1 for d in prior], fs)[0]


def _auctions(priors: list[ProductDist], fs: FeasibleSet) -> Iterator[list[Auction]]:
    """myerson of each prior in turn, in blocks of consecutive priors that share one fill while their tables fit.

    A block's grid is the most cells each bidder has in any of its priors; it grows while that
    grid, times the block's priors and vertices + n, stays within _BLOCK numbers. A prior whose
    grid is too large on its own is a block of one, and runs lines. The caller bounds the list.
    """
    size, start, grid = len(fs.vertices) + fs.n, 0, []
    for t, prior in enumerate(priors):
        cells = [len(d._runs) + 1 for d in prior]
        grown = list(map(max, grid, cells)) if t > start else cells
        if t > start and prod(grown) * size * (t + 1 - start) > _BLOCK:
            yield _block(priors[start:t], grid, fs)
            start, grown = t, cells
        grid = grown
    if priors:
        yield _block(priors[start:], grid, fs)


def _block(priors: list[ProductDist], grid: list[int], fs: FeasibleSet) -> list[Auction]:
    """The auctions of priors whose cells fit grid, their arrays filled for all of them at once.

    Thresholds [i, c, t] and term tables [i, c, t, v] carry prior t's axis just before the
    vertices, as do the outcome tables past the grid axes, built when the grid times the priors
    and vertices + n fits _BLOCK; cells past a prior's last run are pads no value or slice reaches.
    Each auction holds read-only views of its own slices, whose base is the block's array.
    """
    n = fs.n
    phis = np.zeros((n, max(grid), len(priors)))
    thresholds = np.full(phis.shape, np.nan)  # no value reaches a NaN pad: every comparison is false
    for t, prior in enumerate(priors):
        if prior.n != n:
            raise ValueError(f"prior has {prior.n} bidders, system has {n}")
        for i, d in enumerate(prior):  # one cell per run of atoms with equal slopes
            phis[i, 1 : len(d._runs) + 1, t] = d._slopes[d._runs]
            thresholds[i, : len(d._runs), t] = d.support[d._runs]
    terms = _terms(phis, fs.vertices)
    for arr in (thresholds, terms):
        arr.setflags(write=False)
    tables = prod(grid) * (len(fs.vertices) + n) * len(priors) <= _BLOCK
    if tables:
        ranks, outcomes = _tables(terms, thresholds, grid, fs.vertices)
    auctions = []
    for t, prior in enumerate(priors):
        cells = [len(d._runs) + 1 for d in prior]
        own = tuple(map(slice, cells)) + (t,)
        views = (ranks[own], outcomes[own]) if tables else ()
        auctions.append(Auction(prior, fs, thresholds[:, : max(cells), t], terms[:, : max(cells), t], *views))
    return auctions


def _tables(terms: np.ndarray, thresholds: np.ndarray, grid: list[int],
            verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The read-only outcome tables, ranks and outcomes, over grid[i] cells of bidder i on grid axis i.

    One _winners call, with bidder i's cells 0..grid[i] - 1 laid along axis i, fills the ranks
    and the welfare column, and a _pay per bidder its payments. The tables end in the block's
    prior axis, as its terms and thresholds do.
    """
    n = len(grid)
    ranks, welfare = _winners(terms, [np.arange(c).reshape((-1,) + (1,) * (n - 1 - i))
                                      for i, c in enumerate(grid)])
    outcomes = np.empty(ranks.shape + (n + 1,))
    outcomes[..., n] = welfare
    del welfare  # not held through the payment loop, where the build's memory peaks
    xs = verts.T.take(ranks, axis=1)  # bidder i's allocations as one contiguous row
    for i, th in enumerate(thresholds):
        _pay(xs[i].swapaxes(0, i), th, outcomes[..., i].swapaxes(0, i))
    for arr in (ranks, outcomes):
        arr.setflags(write=False)
    return ranks, outcomes


def _terms(phis: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Each bidder's term tables: [i, c, t, v] is phis[i, c, t] * verts[v, i], -inf in cell 0 if verts[v, i] > 0."""
    x = verts.T[:, None, None]  # bidder, then vertices
    terms = phis[..., None] * x
    np.copyto(terms[:, 0], -np.inf, where=x[:, 0] > 0.0)
    return terms


def _winners(terms: np.ndarray, cells) -> tuple[np.ndarray, np.ndarray]:
    """Row of the tie order that wins, and its welfare, at each point of n per-bidder cell arrays.

    terms[i] is bidder i's term table and cells[i] its cells; the n arrays
    broadcast to one shape, not 0-d, the shape of both results. Where every
    vertex sums to -inf, the -inf terms count as 0. Callers bound the points:
    a grid that fits a block, a block of lines, or one profile.
    """
    rows = [t.take(c, axis=0) for t, c in zip(terms, cells)]  # vertices last
    score = sum(rows, 0.0)
    best = score.argmax(axis=-1)
    # a gather at best, not score.max(axis=-1): 10 µs against 131 µs on a (56, 42, 3) grid
    welfare = score.reshape(-1)[best + np.arange(0, score.size, score.shape[-1]).reshape(best.shape)]
    forced = welfare == -np.inf
    if forced.any():
        plain = sum((np.where(r == -np.inf, 0.0, r) for r in rows), 0.0)[forced]
        best[forced] = plain.argmax(axis=-1)
        welfare[forced] = plain.max(axis=-1)
    return best, welfare


def _pay(x: np.ndarray, thresholds: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Threshold payments of a bidder whose cell runs from 0 upward along the first axis of x.

    x is its allocation and thresholds its row, thresholds[k - 1] the lowest
    value of its cell k; in a block, row and x end in the same prior axis.
    By the payment identity a winner in cell c pays
    sum_k threshold[k-1] * (x[k] - x[k-1]) over k = 1..c, and a bidder
    allocated nothing pays nothing. The payments go to out, if given.
    """
    pay = np.empty(x.shape) if out is None else out
    steps = thresholds[: len(x) - 1]  # a block's row ends in a prior axis, as x does
    steps = steps.reshape(steps.shape[:1] + (1,) * (x.ndim - steps.ndim) + steps.shape[1:])
    pay[0] = 0.0
    ((x[1:] - x[:-1]) * steps).cumsum(axis=0, out=pay[1:])
    pay[x <= 0.0] = 0.0
    return pay


def _line(a: Auction, i: int, cells: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Bidder i's payments and the kernel's welfare at its cells 0..top-1, on axes (own cell, row).

    Each row of the (rows, n) cell matrix fixes the others' cells of one
    line; its entry for bidder i is not read.
    """
    cells = list(cells.T)
    cells[i] = np.arange(top)[:, None]
    rows, welfare = _winners(a._terms, cells)
    return _pay(a.feasible.vertices[:, i][rows], a._thresholds[i]), welfare


def _cells(a: Auction, values) -> np.ndarray:
    """Each bidder's cell at one value profile, which must have a value per bidder and no NaN."""
    values = np.asarray(values, dtype=float)
    if values.shape != (len(a._thresholds),):
        raise ValueError(f"a value profile of shape {values.shape} for {len(a._thresholds)} bidders")
    if np.isnan(values).any():
        raise ValueError("a value profile holds NaN")
    return (a._thresholds <= values[:, None]).sum(axis=1)


def allocate(a: Auction, values) -> tuple[float, ...]:
    """Vertex maximizing ironed virtual welfare at the given value profile.

    Vertices giving positive allocation to a bidder below its prior's
    lowest atom are excluded while any alternative exists.
    """
    cells = _cells(a, values)
    rank = _winners(a._terms, cells[:, None])[0][0] if a._ranks is None else a._ranks[tuple(cells)]
    return tuple(a.feasible.vertices[rank].tolist())


def payments(a: Auction, values) -> tuple[float, ...]:
    """Threshold payments: p_i = v_i x_i - integral of x_i over own-value deviations.

    x_i as a function of own value is a step function whose breakpoints are
    the prior's support values, so the integral is an exact finite sum.
    Without tables, bidder i's line runs from cell 0 up to its own cell.
    """
    cells = _cells(a, values)
    if a._outcomes is not None:
        return tuple(a._outcomes[tuple(cells)][:-1].tolist())
    # a list: tuple() of a generator frees a resized tuple to a free list tracemalloc counts
    pays = [float(_line(a, i, cells[None], c + 1)[0][-1, 0]) for i, c in enumerate(cells.tolist())]
    return tuple(pays)


def _expectation(a: Auction, dist: ProductDist) -> tuple[float, float]:
    """Expected revenue and expected ironed virtual welfare under dist.

    Atoms of one bidder that fall into the same cell, a run of the prior,
    are merged. An auction with tables contracts them directly with each
    bidder's cell masses, one axis at a time: its grid fits one _BLOCK, so
    the cap cannot bind. Otherwise _CAP bounds the distinct occupied run
    profiles, and bidder i runs a _line up to its highest occupied cell,
    top_i - 1, for each profile of the others' occupied cells, a block of
    lines per call, each point weighted by its cells' mass. The kernel's
    welfare is read once per occupied profile, off bidder 0's lines.
    """
    if dist.n != a.feasible.n:
        raise ValueError(f"evaluation distribution has {dist.n} bidders, need {a.feasible.n}")
    masses = [np.bincount(th.searchsorted(d.support, "right"), d.probs, len(th))
              for th, d in zip(a._thresholds, dist)]  # each bidder's mass in each of its cells
    if a._outcomes is not None:
        table = _contract(a._outcomes, masses)
        return float(table[:-1].sum()), float(table[-1])
    mass = np.array(masses)
    held = mass > 0.0  # the cells that hold an atom, each of positive mass
    tops = (held.shape[1] - held[:, ::-1].argmax(axis=1)).tolist()  # one past each highest held cell
    sizes = held.sum(axis=1).tolist()
    count = prod(sizes)
    if count > _CAP:
        # a longer count would swamp the message, and past 4,300 digits str() refuses it
        shown = count if count <= 10**18 else "more than 10^18"
        raise EnumerationCapError(f"{shown} cell profiles exceed cap {_CAP}")
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
            pay, w = _line(a, i, cells, t)
            weights = weights.prod(axis=1) * mass[i, :t, None]
            revenue += np.vdot(weights, pay)
            if i == 0:
                welfare += np.vdot(weights, w)
    return float(revenue), float(welfare)


def _contract(table: np.ndarray, masses) -> np.ndarray:
    """The expected outcomes, (n + 1,), of an auction's outcome tables under bidder i's cell masses masses[i]."""
    for m, c in zip(masses, table.shape):
        table = m[:c] @ table.reshape(c, -1)  # contract the leading axis, one bidder's cells
    return table


def _expected_revenues(block: list[Auction], dist: ProductDist) -> list[float]:
    """expected_revenue(a, dist) of each auction a of one block of _auctions, bit for bit.

    With tables, bidder i's cell under every auction of the block, at each of dist[i]'s atoms, is
    one comparison with the block's (n, width, T) thresholds, whose NaN pads compare false, and
    its cell masses under all of them one bincount over t * width + cell, which adds each
    auction's atoms in order from 0.0, as _expectation's bincount does; each auction then
    contracts its own outcome tables. A block without tables runs lines, an auction at a time.
    """
    if block[0]._outcomes is None:
        return [expected_revenue(a, dist) for a in block]
    thresholds = block[0]._thresholds.base
    n, width, count = thresholds.shape
    masses = np.empty((count, n, width))
    for i, d in enumerate(dist):
        cells = (thresholds[i, :, :, None] <= d.support).sum(axis=0)  # (T, atoms)
        cells += width * np.arange(count)[:, None]
        masses[:, i] = np.bincount(cells.ravel(), np.tile(d.probs, count), count * width).reshape(count, width)
    return [float(_contract(a._outcomes, m)[:-1].sum()) for a, m in zip(block, masses)]


def _allocations(block: list[Auction], profiles: np.ndarray) -> np.ndarray:
    """allocate(a, p) of each auction a of one block of _auctions at each row p of a (P, n) array of
    value profiles without NaN, as a (T, P, n) array. With tables, each bidder's cells under every
    auction at every profile are one comparison with the block's thresholds, and the winners one
    gather of the block's ranks; a block without tables calls allocate.
    """
    a = block[0]
    if a._ranks is None:
        return np.array([[allocate(b, p) for p in profiles] for b in block])
    cells = (a._thresholds.base[..., None] <= profiles.T[:, None, None]).sum(axis=1)  # (n, T, P)
    return a.feasible.vertices[a._ranks.base[tuple(cells) + (np.arange(len(block))[:, None],)]]


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
