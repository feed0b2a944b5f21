"""Revenue curves, ironing, virtual values, and monopoly pricing."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myersonlab.curves import (
    _GATE,
    NEG_INF,
    iron,
    ironed_virtual,
    ironing_intervals,
    monopoly,
    revenue_curve,
    virtual_table,
    RevenueCurve,
)
from myersonlab.dist import (
    ProductDist,
    discretize_uniform_with_atom,
    make_discrete,
    point_mass,
    uniform_grid,
)
from myersonlab.learn import dominated_empirical, draw_samples

import oracles
from test_dist import TWO_POINT, value_dists


class TestNegInfSentinel:
    def test_ordering(self):
        assert NEG_INF < -1e300
        assert NEG_INF <= NEG_INF
        assert not NEG_INF < NEG_INF
        assert not (-1e300 < NEG_INF)
        assert NEG_INF == NEG_INF
        assert NEG_INF != 0.0

    def test_arithmetic_forbidden(self):
        with pytest.raises(TypeError):
            NEG_INF + 1.0
        with pytest.raises(TypeError):
            0.0 * NEG_INF


class TestRevenueCurve:
    def test_two_point(self):
        c = revenue_curve(TWO_POINT)
        assert c.breakpoints == ((0.0, 0.0), (0.1, 0.1), (1.0, 0.1))

    def test_point_mass(self):
        assert revenue_curve(point_mass(0.5)).breakpoints == ((0.0, 0.0), (1.0, 0.5))

    def test_uniform_thirds(self):
        c = revenue_curve(make_discrete([1 / 3, 2 / 3, 1.0], [1 / 3, 1 / 3, 1 / 3]))
        qs = [q for q, _ in c.breakpoints]
        rs = [r for _, r in c.breakpoints]
        assert qs == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0], abs=1e-12)
        assert rs == pytest.approx([0.0, 1 / 3, 4 / 9, 1 / 3], abs=1e-12)

    def test_value_at_interpolates(self):
        c = revenue_curve(TWO_POINT)
        assert c.value_at(0.05) == pytest.approx(0.05, abs=1e-12)
        assert c.value_at(0.55) == pytest.approx(0.1, abs=1e-12)
        with pytest.raises(ValueError):
            c.value_at(1.0001)

    @given(value_dists())
    @settings(max_examples=80, deadline=None)
    def test_shape(self, d):
        c = revenue_curve(d)
        qs = [q for q, _ in c.breakpoints]
        assert c.breakpoints[0] == (0.0, 0.0)
        assert qs[-1] == 1.0
        assert all(a < b for a, b in zip(qs, qs[1:]))

    @given(value_dists())
    @settings(max_examples=80, deadline=None)
    def test_peak_is_monopoly_revenue(self, d):
        c = revenue_curve(d)
        _, rev = monopoly(d)
        assert max(r for _, r in c.breakpoints) == pytest.approx(rev, abs=1e-12)


class TestIron:
    def test_concave_input_unchanged(self):
        c = revenue_curve(TWO_POINT)
        assert iron(c).breakpoints == c.breakpoints

    def test_v_shape_hull(self):
        c = RevenueCurve(((0.0, 0.0), (0.5, 0.1), (1.0, 0.4)))
        assert iron(c).breakpoints == ((0.0, 0.0), (1.0, 0.4))

    @given(value_dists())
    @settings(max_examples=100, deadline=None)
    def test_envelope_properties(self, d):
        c = revenue_curve(d)
        h = iron(c)
        assert set(h.breakpoints) <= set(c.breakpoints)
        for q, r in c.breakpoints:
            assert h.value_at(q) >= r - 1e-12
        slopes = [
            (r1 - r0) / (q1 - q0)
            for (q0, r0), (q1, r1) in zip(h.breakpoints, h.breakpoints[1:])
        ]
        assert all(a >= b - 1e-12 for a, b in zip(slopes, slopes[1:]))
        assert iron(h).breakpoints == h.breakpoints


class TestIronedVirtual:
    def test_gadget_values(self):
        assert ironed_virtual(TWO_POINT, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert ironed_virtual(TWO_POINT, 0.5) == pytest.approx(0.0, abs=1e-12)
        assert ironed_virtual(TWO_POINT, 0.1) == pytest.approx(0.0, abs=1e-12)
        assert ironed_virtual(TWO_POINT, 0.05) is NEG_INF

    def test_point_masses(self):
        assert ironed_virtual(point_mass(0.5), 0.5) == pytest.approx(0.5)
        assert ironed_virtual(point_mass(0.5), 0.9) == pytest.approx(0.5)
        assert ironed_virtual(point_mass(1.0), 1.0) == pytest.approx(1.0)

    @given(value_dists())
    @settings(max_examples=80, deadline=None)
    def test_step_function_shape(self, d):
        # nondecreasing in value, constant between consecutive support values
        grid = sorted(set(list(d.support) + [v + 1e-6 for v in d.support] + [0.0, 1.0]))
        vals = [ironed_virtual(d, v) for v in grid if 0 <= v <= 1]
        for a, b in zip(vals, vals[1:]):
            assert a <= b or a == pytest.approx(b, abs=1e-12)
        table = virtual_table(d)
        for v in d.support:
            assert table.at(v) == ironed_virtual(d, v)
        for lo, hi in zip(d.support, d.support[1:]):
            mid = 0.5 * (lo + hi)
            if mid < hi:
                assert ironed_virtual(d, mid) == ironed_virtual(d, lo)

    @given(value_dists())
    @settings(max_examples=60, deadline=None)
    def test_regular_matches_raw_right_derivative(self, d):
        if ironing_intervals(d):
            return
        raw = revenue_curve(d)
        from myersonlab.dist import quantile_of_value

        for v in d.support:
            q = quantile_of_value(d, v)
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


def learned_prior(step, count, seed):
    prior = ProductDist((discretize_uniform_with_atom(0.55, 0.1, step),))
    return dominated_empirical(draw_samples(prior, count, seed), 0.1)[0]


class TestOneWalkOracle:
    """The one-walk table and intervals equal the per-atom and per-segment scans exactly."""

    @given(value_dists(8))
    @settings(max_examples=200, deadline=None)
    def test_random_distributions(self, d):
        assert virtual_table(d).slopes == oracles.virtual_slopes(d)
        assert ironing_intervals(d) == oracles.ironing_intervals(d)
        assert hull_bits(d) == oracle_hull_bits(d)

    def test_learned_prior(self):
        d = learned_prior(0.001, 1726, 0)
        assert len(d.support) > 700
        assert virtual_table(d).slopes == oracles.virtual_slopes(d)
        assert ironing_intervals(d) == oracles.ironing_intervals(d)


def hull_bits(d):
    """Bit patterns of iron's breakpoints and of the table's slopes."""
    return (
        [tuple(map(float.hex, p)) for p in iron(revenue_curve(d)).breakpoints],
        list(map(float.hex, virtual_table(d).slopes)),
    )


def oracle_hull_bits(d):
    return (
        [tuple(map(float.hex, p)) for p in oracles.iron(revenue_curve(d)).breakpoints],
        list(map(float.hex, oracles.virtual_table(d).slopes)),
    )


def equal_revenue(m):
    """Pr[u >= k/m] = 1/k on the values k/m, k = 1..m."""
    tail = [1.0 / k for k in range(1, m + 1)]
    masses = [a - b for a, b in zip(tail, tail[1:])] + [tail[-1]]
    return make_discrete([k / m for k in range(1, m + 1)], masses)


def first_pass_drops(d):
    """Breakpoints on or below their neighbours' chord, which one thinning pass drops."""
    bps = revenue_curve(d).breakpoints
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

    def test_virtual_table_at(self):
        with pytest.raises(ValueError, match="NaN"):
            virtual_table(self.D).at(float("nan"))


def test_virtual_tables_of_fresh_priors_leave_memory_flat():
    # a module-level memo would keep every learned prior and its table alive;
    # 300 samples at step 0.01 give about 100 atoms, below the gate, and
    # 1,000 at step 0.001 about 550, so both table paths are covered
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
