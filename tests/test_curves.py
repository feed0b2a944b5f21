"""Revenue curves, ironing, virtual values, and monopoly pricing."""

import tracemalloc
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings

from myersonlab.auction import _cells, myerson
from myersonlab.dist import (
    _GATE,
    ProductDist,
    ValueDist,
    _curve,
    _envelope,
    discretize_uniform_with_atom,
    ironing_intervals,
    make_discrete,
    monopoly,
    point_mass,
    virtual_table,
)
from myersonlab.feasible import uniform_matroid
from myersonlab.learn import SampleMatrix, dominated_empirical, draw_samples

import oracles
from fuzz import scale_values, uniform_grid
from test_dist import TWO_POINT, value_dists


def revenue_points(d):
    """d's revenue curve as (q, r) pairs of floats."""
    return tuple(zip(*(a.tolist() for a in _curve(d.support, d._above))))


def ironed_virtual(d, v):
    """d's ironed virtual value at bid v as the auction reads it; None below every atom (cell 0)."""
    a = myerson(ProductDist((d,)), uniform_matroid(1, 1))
    cell = _cells(a, [v])[0]
    return None if cell == 0 else float(a._terms[0, cell, 0])  # vertex 0 is (1.0,): the term is the value


class TestRevenueCurve:
    def test_two_point(self):
        assert revenue_points(TWO_POINT) == ((0.0, 0.0), (0.1, 0.1), (1.0, 0.1))

    def test_point_mass(self):
        assert revenue_points(point_mass(0.5)) == ((0.0, 0.0), (1.0, 0.5))

    def test_uniform_thirds(self):
        c = revenue_points(make_discrete([1 / 3, 2 / 3, 1.0], [1 / 3, 1 / 3, 1 / 3]))
        qs = [q for q, _ in c]
        rs = [r for _, r in c]
        assert qs == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0], abs=1e-12)
        assert rs == pytest.approx([0.0, 1 / 3, 4 / 9, 1 / 3], abs=1e-12)

    @given(value_dists())
    @settings(max_examples=80, deadline=None)
    def test_shape(self, d):
        for curve in (revenue_points(d), tuple(map(tuple, d._hull.tolist()))):
            qs = [q for q, _ in curve]
            assert curve[0] == (0.0, 0.0)
            assert qs[-1] == 1.0
            assert all(a < b for a, b in zip(qs, qs[1:]))

    @given(value_dists())
    @settings(max_examples=80, deadline=None)
    def test_peak_is_monopoly_revenue(self, d):
        _, rev = monopoly(d)
        assert max(r for _, r in revenue_points(d)) == pytest.approx(rev, abs=1e-12)


class TestIron:
    def test_concave_input_unchanged(self):
        assert tuple(map(tuple, TWO_POINT._hull.tolist())) == revenue_points(TWO_POINT)

    def test_v_shape_hull(self):
        assert _envelope(((0.0, 0.0), (0.5, 0.1), (1.0, 0.4))) == [(0.0, 0.0), (1.0, 0.4)]

    @given(value_dists())
    @settings(max_examples=100, deadline=None)
    def test_envelope_properties(self, d):
        raw, h = revenue_points(d), tuple(map(tuple, d._hull.tolist()))
        assert set(h) <= set(raw)
        hq, hr = np.array(h).T
        for q, r in raw:
            assert np.interp(q, hq, hr) >= r - 1e-12
        slopes = [(r1 - r0) / (q1 - q0) for (q0, r0), (q1, r1) in zip(h, h[1:])]
        assert all(a >= b - 1e-12 for a, b in zip(slopes, slopes[1:]))
        assert tuple(_envelope(h)) == h


class TestIronedVirtual:
    def test_gadget_values(self):
        assert ironed_virtual(TWO_POINT, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert ironed_virtual(TWO_POINT, 0.5) == pytest.approx(0.0, abs=1e-12)
        assert ironed_virtual(TWO_POINT, 0.1) == pytest.approx(0.0, abs=1e-12)
        assert ironed_virtual(TWO_POINT, 0.05) is None

    def test_point_masses(self):
        assert ironed_virtual(point_mass(0.5), 0.5) == pytest.approx(0.5)
        assert ironed_virtual(point_mass(0.5), 0.9) == pytest.approx(0.5)
        assert ironed_virtual(point_mass(1.0), 1.0) == pytest.approx(1.0)

    @given(value_dists())
    @settings(max_examples=80, deadline=None)
    def test_step_function_shape(self, d):
        # None below the lowest atom, then nondecreasing in value and
        # constant between consecutive support values
        grid = sorted(set(list(d.support) + [v + 1e-6 for v in d.support] + [0.0, 1.0]))
        assert all(ironed_virtual(d, v) is None for v in grid if v < d.support[0])
        vals = [ironed_virtual(d, v) for v in grid if d.support[0] <= v <= 1]
        for a, b in zip(vals, vals[1:]):
            assert a <= b or a == pytest.approx(b, abs=1e-12)
        for v, slope in zip(d.support, virtual_table(d).slopes):
            assert slope == ironed_virtual(d, v)
        for lo, hi in zip(d.support, d.support[1:]):
            mid = 0.5 * (lo + hi)
            if mid < hi:
                assert ironed_virtual(d, mid) == ironed_virtual(d, lo)

    @given(value_dists())
    @settings(max_examples=60, deadline=None)
    def test_regular_matches_raw_right_derivative(self, d):
        if ironing_intervals(d):
            return
        raw = oracles.revenue_curve(d)
        m = len(d.support)
        for j, v in enumerate(d.support):
            q = raw[m - 1 - j][0]  # Pr[u > v], the quantile of the next atom up
            assert ironed_virtual(d, v) == pytest.approx(oracles.right_slope_at(raw, q), abs=1e-12)


class TestIroningIntervals:
    def test_concave_has_none(self):
        assert ironing_intervals(TWO_POINT) == []

    def test_sagging_middle_breakpoint(self):
        # breakpoints (0,0), (0.1,0.1), (0.2,0.1), (1,0.4): the middle one
        # sags below the chord, so the hull spans (0.1, 1)
        d = make_discrete([0.4, 0.5, 1.0], [0.8, 0.1, 0.1])
        ivs = ironing_intervals(d)
        assert len(ivs) == 1
        assert ivs[0] == pytest.approx((0.1, 1.0), abs=1e-12)


class TestMonopoly:
    def test_tie_prefers_larger_price(self):
        assert monopoly(TWO_POINT) == (1.0, pytest.approx(0.1, abs=1e-12))

    def test_point_mass(self):
        assert monopoly(point_mass(0.5)) == (0.5, 0.5)

    def test_uniform_thirds(self):
        price, rev = monopoly(make_discrete([1 / 3, 2 / 3, 1.0], [1 / 3, 1 / 3, 1 / 3]))
        assert price == pytest.approx(2 / 3)
        assert rev == pytest.approx(4 / 9)

    def test_exact_tie_goes_to_the_larger_price(self):
        # 0.25 * 1.0 and 0.5 * 0.5 are both exactly 0.25
        assert monopoly(make_discrete([0.25, 0.5], [0.5, 0.5])) == (0.5, 0.25)

    @given(value_dists())
    def test_matches_the_python_max(self, d):
        price, revenue = monopoly(d)
        assert type(price) is float and type(revenue) is float
        assert (price, revenue) == oracles.monopoly(d)


def learned_prior(step, count, seed):
    prior = ProductDist((discretize_uniform_with_atom(0.55, 0.1, step),))
    return dominated_empirical(draw_samples(prior, count, seed), 0.1)[0]


class TestOneWalkOracle:
    """The one-walk table and intervals equal the per-atom and per-segment scans exactly."""

    @given(value_dists(8))
    @settings(max_examples=200, deadline=None)
    def test_random_distributions(self, d):
        assert tuple(virtual_table(d).slopes.tolist()) == oracles.virtual_slopes(d)
        assert ironing_intervals(d) == oracles.ironing_intervals(d)
        assert hull_bits(d) == oracle_hull_bits(d)
        assert tuple(d._runs.tolist()) == oracles.run_starts(d)

    def test_learned_prior(self):
        d = learned_prior(0.001, 1726, 0)
        assert len(d.support) > 700
        assert tuple(virtual_table(d).slopes.tolist()) == oracles.virtual_slopes(d)
        assert ironing_intervals(d) == oracles.ironing_intervals(d)
        assert tuple(d._runs.tolist()) == oracles.run_starts(d)


def hull_bits(d):
    """Bit patterns of the hull the prior kept and of its table's slopes."""
    return (
        [tuple(map(float.hex, p)) for p in d._hull],
        list(map(float.hex, virtual_table(d).slopes)),
    )


def oracle_hull_bits(d):
    return (
        [tuple(map(float.hex, p)) for p in oracles.iron(oracles.revenue_curve(d))],
        list(map(float.hex, oracles.walk_slopes(d))),
    )


def equal_revenue(m):
    """Pr[u >= k/m] = 1/k on the values k/m, k = 1..m."""
    tail = [1.0 / k for k in range(1, m + 1)]
    masses = [a - b for a, b in zip(tail, tail[1:])] + [tail[-1]]
    return make_discrete([k / m for k in range(1, m + 1)], masses)


def first_pass_drops(d):
    """Breakpoints on or below their neighbours' chord, which one thinning pass drops."""
    bps = revenue_points(d)
    return sum(
        (q1 - q0) * (r2 - r0) - (r1 - r0) * (q2 - q0) >= 0.0
        for (q0, r0), (q1, r1), (q2, r2) in zip(bps, bps[1:], bps[2:])
    )


class TestHullOracle:
    """The thinned hull and the array table equal the full chain and its walk bit for bit."""

    @given(value_dists(300))
    @settings(max_examples=60, deadline=None)
    def test_long_random_distributions(self, d):
        assert hull_bits(d) == oracle_hull_bits(d)

    @pytest.mark.parametrize("step", [0.1, 0.01, 0.001])
    @pytest.mark.parametrize("count", [30, 100, 300, 1000, 3000])
    def test_learned_priors(self, step, count):
        for seed in range(3):
            d = learned_prior(step, count, seed)
            assert hull_bits(d) == oracle_hull_bits(d)

    @pytest.mark.parametrize("m", [2, 3, 10, 50, 127, 128, 129, 200, 300])
    def test_equal_revenue_and_uniform_grids(self, m):
        for d in (equal_revenue(m), uniform_grid([k / m for k in range(1, m + 1)])):
            assert len(d.support) == m
            assert hull_bits(d) == oracle_hull_bits(d)

    @pytest.mark.parametrize("m", [_GATE - 1, _GATE, _GATE + 1])
    def test_supports_at_the_gate(self, m):
        rng = np.random.default_rng(m)
        for _ in range(20):
            values = rng.choice(1001, size=m, replace=False) / 1000
            weights = rng.integers(1, 10, size=m)
            d = make_discrete(values, weights / weights.sum())
            assert hull_bits(d) == oracle_hull_bits(d)

    @pytest.mark.parametrize("m", [1, _GATE - 1, _GATE, _GATE + 1, 750])
    def test_priors_of_every_constructor(self, m):
        rng = np.random.default_rng(m)
        values = np.sort(rng.choice(1000, size=m, replace=False) + 1) / 1000
        weights = rng.integers(1, 10, size=m)
        d = make_discrete(values, weights / weights.sum())
        samples = SampleMatrix(np.repeat(values, weights)[:, None])
        sized = [
            d,
            uniform_grid(values),
            discretize_uniform_with_atom(1.0, 0.1, 1 / (m - 1)) if m > 1 else point_mass(values[0]),
            scale_values(d, 0.5),
            ValueDist(d.support, d.probs),
            ValueDist.from_json(d.to_json()),
            oracles.empirical(samples)[0],
        ]
        assert [len(p.support) for p in sized] == [m] * len(sized)
        for p in sized + [dominated_empirical(samples, 0.1)[0]]:
            assert hull_bits(p) == oracle_hull_bits(p)
            assert tuple(p._runs.tolist()) == oracles.run_starts(p)
            # the sums added left to right and top down, as the docstring says
            assert p._below.tolist() == list(accumulate(p.probs, initial=0.0))
            assert p._above.tolist()[1:] == list(accumulate(reversed(p.probs), initial=0.0))[-2::-1]
            atoms, h, runs = len(p.support), len(p._hull), len(p._runs)
            assert 2 <= h <= atoms + 1 and 1 <= runs <= atoms
            derived = {
                "support": (float, (atoms,)),
                "probs": (float, (atoms,)),
                "_below": (float, (atoms + 1,)),
                "_above": (float, (atoms + 1,)),
                "_hull": (float, (h, 2)),
                "_slopes": (float, (atoms,)),
                "_runs": (np.intp, (runs,)),
            }
            for name, (dtype, shape) in derived.items():
                arr = getattr(p, name)
                assert isinstance(arr, np.ndarray) and not arr.flags.writeable, name
                assert (arr.dtype, arr.shape) == (np.dtype(dtype), shape), name

    @pytest.mark.parametrize(
        "probs, slopes",
        [
            ((0.5, 1e-20, 0.5), (-0.7, -0.7, 0.9)),
            ((1e-15, 0.5, 0.5 - 1e-15), (-400319966877376.9, 0.10000000000000075, 0.9)),
        ],
    )
    def test_tiny_masses_that_repeat_a_quantile(self, probs, slopes):
        for d in (ValueDist((0.1, 0.5, 0.9), probs), make_discrete((0.1, 0.5, 0.9), probs)):
            assert tuple(virtual_table(d).slopes.tolist()) == slopes
            assert hull_bits(d) == oracle_hull_bits(d)
            assert ironing_intervals(d) == oracles.ironing_intervals(d)

    def test_thinning_stops_after_a_pass_that_drops_few(self):
        # a concave curve of 300 breakpoints with every sixth atom's mass
        # tripled: the first pass drops some points, but fewer than a quarter
        m = 300
        weights = [3.0 if k % 6 == 0 else 1.0 for k in range(m)]
        d = make_discrete([(k + 1) / m for k in range(m)], [w / sum(weights) for w in weights])
        drops = first_pass_drops(d)
        assert len(d.support) + 1 > _GATE and 0 < 4 * drops < m + 1
        assert hull_bits(d) == oracle_hull_bits(d)


class TestNanQueries:
    D = make_discrete([0.2, 0.5, 0.9], [0.3, 0.3, 0.4])

    def test_ironed_virtual(self):
        with pytest.raises(ValueError, match="NaN"):
            ironed_virtual(self.D, float("nan"))


def test_tables_and_auctions_read_the_slopes_the_prior_derived(monkeypatch):
    short, long = uniform_grid([0.2, 0.4, 0.6, 0.8]), learned_prior(0.001, 1000, 0)
    assert len(short.support) < _GATE < len(long.support)
    derived = [d._slopes for d in (short, long)]

    def hull(points):
        raise AssertionError("a built prior was ironed again")

    monkeypatch.setattr("myersonlab.dist._envelope", hull)
    for d, slopes in zip((short, long), derived):
        assert virtual_table(d).slopes is slopes
        ironing_intervals(d)  # the curves report reads the kept hull
        assert ironed_virtual(d, d.support[0]) == slopes[0]
        a = myerson(ProductDist((d, d)), uniform_matroid(2, 1))
        # at the vertex giving bidder i 1.0, its terms are its run values
        phis = [a._terms[i, :, v] for i, v in enumerate(a.feasible.vertices.argmax(axis=0))]
        assert phis[0][1] == phis[1][1] == slopes[0]
        runs = len(d._runs)
        assert np.isnan(a._thresholds[:, runs:]).all()  # padded past the last run
        for row, thresholds in zip(phis, a._thresholds):
            assert row[1 : runs + 1].tolist() == [slopes[j] for j in d._runs]
            assert thresholds[:runs].tolist() == [d.support[j] for j in d._runs]


def test_a_long_prior_keeps_its_derived_state_in_arrays():
    # 1,001 atoms and 864 hull points, all in arrays, hold about 63 KB;
    # as tuples of floats the atoms and derived fields took over 200 KB
    discretize_uniform_with_atom(0.55, 0.1, 0.001)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        d = discretize_uniform_with_atom(0.55, 0.1, 0.001)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (len(d.support), len(d._hull)) == (1001, 864)
    for atoms in (d.support, d.probs):
        assert isinstance(atoms, np.ndarray) and not atoms.flags.writeable
        assert (atoms.dtype, atoms.shape) == (np.dtype(float), (1001,))
    assert kept < 80 * 1024


def test_virtual_tables_of_fresh_priors_leave_memory_flat():
    # each prior holds its own slopes, so a table must die with its prior: a
    # module-level memo would keep every learned prior and its table alive;
    # 300 samples at step 0.01 give about 100 atoms, below the gate, and
    # 1,000 at step 0.001 about 550, so both ironing paths are covered
    for step, count in ((0.01, 300), (0.001, 1000)):
        learned_prior(step, count, 0)
        tracemalloc.start()
        try:
            virtual_table(learned_prior(step, count, 1))
            before = tracemalloc.get_traced_memory()[0]
            for seed in range(2, 202):
                virtual_table(learned_prior(step, count, seed))
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024, (step, count)
