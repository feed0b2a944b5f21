"""Sampling, learned priors, concentration radii, and Hellinger distances."""

from itertools import permutations
from math import ceil, inf, log, nan, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from myersonlab.dist import (
    _GATE,
    ProductDist,
    discretize_uniform_with_atom,
    dominates,
    is_close,
    make_discrete,
    point_mass,
)
from myersonlab.learn import (
    SampleMatrix,
    _learn_counts,
    _trial_counts,
    dominated_empirical,
    draw_samples,
    hellinger_sq,
    required_samples,
)

from fuzz import random_product, uniform_grid
from test_dist import assert_built_as_value_dist

GRID10 = [round(0.1 * j, 10) for j in range(1, 11)]
cdf = oracles.scalar_cdf  # Pr[u <= v], summed left to right


def bernstein_radius(mean: float, count: int, delta: float) -> float:
    """Two-sided confidence radius for the mean of [0, 1] samples, on the probability scale.

    t = sqrt(2 m (1-m) ln(2/delta) / N) + ln(2/delta) / N, which satisfies
    t^2 >= (2 m (1-m) + (2/3) t) ln(2/delta) / N.
    """
    if not 0.0 <= mean <= 1.0:
        raise ValueError(f"mean {mean!r} outside [0, 1]")
    if count < 1:
        raise ValueError("count must be at least 1")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta {delta!r} outside (0, 1)")
    coef = log(2.0 / delta)
    return sqrt(2.0 * mean * (1.0 - mean) * coef / count) + coef / count


def hellinger_sq_product(ps: ProductDist, qs: ProductDist) -> float:
    """Exact squared Hellinger distance of products: 1 - prod(1 - H_i^2).

    Always at most the coordinate sum of squared distances.
    """
    if ps.n != qs.n:
        raise ValueError(f"dimension mismatch: {ps.n} vs {qs.n}")
    compl = 1.0
    for pi, qi in zip(ps, qs):
        compl *= 1.0 - hellinger_sq(pi, qi)
    return 1.0 - compl


def grid_prior(n=2):
    return ProductDist(tuple(uniform_grid(GRID10) for _ in range(n)))


class TestDrawSamples:
    def test_point_mass_prior_constant(self):
        s = draw_samples(ProductDist((point_mass(0.3), point_mass(0.7))), 50, 0)
        assert np.all(s.values[:, 0] == 0.3)
        assert np.all(s.values[:, 1] == 0.7)

    def test_deterministic_given_seed(self):
        d = grid_prior()
        a = draw_samples(d, 100, 9)
        b = draw_samples(d, 100, 9)
        c = draw_samples(d, 100, 10)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_values_live_on_support(self):
        d = grid_prior()
        s = draw_samples(d, 200, 3)
        assert set(np.unique(s.values)) <= set(GRID10)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            draw_samples(grid_prior(), 0, 1)

    def test_inverse_cdf_of_the_summed_masses(self):
        # the CDF running sum each ValueDist keeps is np.cumsum of its masses, bit for bit
        rng = np.random.default_rng(11)
        priors = [discretize_uniform_with_atom(0.55, 0.1, 0.001)]
        for _ in range(30):
            m = int(rng.integers(1, 40))
            values = rng.choice(1000, size=m, replace=False) / 999
            weights = rng.integers(1, 1000, size=m)
            priors.append(make_discrete(values, weights / weights.sum()))
        for seed, dj in enumerate(priors):
            s = draw_samples(ProductDist((dj,)), 300, seed)
            u = np.random.default_rng(seed).random((300, 1))[:, 0]
            idx = np.searchsorted(np.cumsum(dj.probs), u, side="left")
            idx = np.minimum(idx, len(dj.support) - 1)
            assert np.array_equal(s.values[:, 0], np.asarray(dj.support)[idx])

    def test_a_uniform_equal_to_a_partial_sum_takes_the_atom_it_completes(self):
        # the generalized inverse, inf{v : F(v) >= u}; a Generator draws such a u with probability
        # about 2**-53 per draw, so a Generator whose uniforms are given feeds them in. Dyadic masses
        # make the partial sums exact, in a 3-atom column and in a column past the sampling gate.

        class Given(np.random.Generator):
            def __init__(self, u):
                super().__init__(np.random.PCG64(0))
                self.u = u

            def random(self, size=None):
                return self.u.reshape(size).copy()

        wide = 2 * _GATE
        d = ProductDist((make_discrete([0.1, 0.2, 0.3], [0.25, 0.25, 0.5]),
                         make_discrete(np.arange(1, wide + 1) / wide, np.full(wide, 1 / wide))))
        u = np.array([[0.0, 0.0], [0.25, 1 / wide], [0.5, 0.5], [0.75, 1 - 1 / wide]])
        expected = [[0.1, 1 / wide], [0.1, 1 / wide], [0.2, 0.5], [0.3, 1 - 1 / wide]]
        assert draw_samples(d, 4, Given(u)).values.tolist() == expected

    @pytest.mark.parametrize("count", [1, 2, 1060, 1726])
    def test_one_pass_matches_the_clipped_column_oracle(self, count):
        # a 1-atom, a binary, a 3-atom, a 40-atom, a 128-atom, a 129-atom and the
        # 1,001-atom coordinate in one product, so columns on both sides of the
        # sampling gate; the 3-atom masses sum to 0.9999999999999999 left to right
        rng = np.random.default_rng(40)

        def spread(m):
            weights = rng.integers(1, 1000, size=m)
            return make_discrete(rng.choice(1000, size=m, replace=False) / 999, weights / weights.sum())

        d = ProductDist((
            point_mass(0.3),
            make_discrete([0.2, 0.9], [0.6, 0.4]),
            make_discrete([0.1, 0.5, 0.8], [0.7, 0.2, 0.1]),
            spread(40),
            spread(_GATE),
            spread(_GATE + 1),
            discretize_uniform_with_atom(0.55, 0.1, 0.001),
        ))
        assert [len(dj.support) for dj in d] == [1, 2, 3, 40, 128, 129, 1001]
        seeds = [0, 7, 2**40] + [np.random.SeedSequence(909, spawn_key=(t,)) for t in range(3)]
        for seed in seeds:
            s, want = draw_samples(d, count, seed), oracles.draw_samples(d, count, seed)
            assert s.values.dtype == want.values.dtype and s.values.shape == (count, 7)
            assert s.values.tobytes() == want.values.tobytes()
            assert not s.values.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                s.values[0, 0] = 0.5

    def test_bernstein_coverage(self):
        # column mean within the radius around the true mean in >= 1-delta of runs
        d = grid_prior()
        true_means = [sum(v * p for v, p in zip(dj.support, dj.probs)) for dj in d]
        count, delta, runs = 200, 0.1, 1000
        hits = 0
        for t in range(runs):
            s = draw_samples(d, count, np.random.SeedSequence(1, spawn_key=(t,)))
            hits += all(
                abs(float(s.values[:, j].mean()) - true_means[j])
                <= bernstein_radius(true_means[j], count, delta)
                for j in range(d.n)
            )
        assert hits / runs >= 1 - delta


class TestEmpirical:
    def test_two_samples(self):
        s = SampleMatrix(np.array([[0.3], [0.7]]))
        e = oracles.empirical(s)
        assert e[0].support.tolist() == [0.3, 0.7]
        assert e[0].probs.tolist() == pytest.approx([0.5, 0.5])

    def test_constant_column(self):
        s = SampleMatrix(np.array([[0.2]] * 4))
        e = oracles.empirical(s)[0]
        assert (e.support.tolist(), e.probs.tolist()) == ([0.2], [1.0])

    def test_sup_cdf_gap_bound(self):
        # per-point Bernstein bound on |D - E| holds in >= 1-delta of runs
        d = grid_prior()
        count, delta, runs = 200, 0.1, 400
        coef = log(2 * d.n * count / delta)
        hits = 0
        for t in range(runs):
            s = draw_samples(d, count, np.random.SeedSequence(2, spawn_key=(t,)))
            e = oracles.empirical(s)
            ok = True
            for j in range(d.n):
                for v in d[j].support:
                    dv, ev = cdf(d[j], v), cdf(e[j], v)
                    if abs(dv - ev) > sqrt(2 * dv * (1 - dv) * coef / count) + coef / count:
                        ok = False
            hits += ok
        assert hits / runs >= 1 - delta


class TestDominatedEmpirical:
    def test_top_of_support_clamps_to_one(self):
        s = SampleMatrix(np.array([[0.4]] * 10))
        et = dominated_empirical(s, 0.1)
        assert cdf(et[0], 0.4) == pytest.approx(1.0, abs=1e-12)

    def test_inflation_formula(self):
        # empirical CDF 0.5 at v=0.3 from 100 samples, one bidder, delta 0.1
        vals = np.array([[0.3]] * 50 + [[0.7]] * 50)
        et = dominated_empirical(SampleMatrix(vals), 0.1)
        coef = log(2 * 1 * 100 / 0.1)
        expected = min(1.0, 0.5 + sqrt(2 * 0.25 * coef / 100) + 4 * coef / 100)
        assert cdf(et[0], 0.3) == pytest.approx(expected, abs=1e-12)
        assert cdf(et[0], 0.3) == pytest.approx(0.9989836, abs=1e-6)

    def test_bottom_mass_sits_at_zero(self):
        vals = np.array([[0.5]] * 40)
        et = dominated_empirical(SampleMatrix(vals), 0.2)
        assert et[0].support[0] == 0.0
        coef = log(2 * 1 * 40 / 0.2)
        assert et[0].probs[0] == pytest.approx(min(1.0, 4 * coef / 40), abs=1e-12)

    def test_cdf_dominates_empirical_cdf(self):
        d = grid_prior()
        for t in range(30):
            s = draw_samples(d, 60, np.random.SeedSequence(5, spawn_key=(t,)))
            e, et = oracles.empirical(s), dominated_empirical(s, 0.1)
            for j in range(d.n):
                for v in GRID10 + [0.0]:
                    assert cdf(et[j], v) >= cdf(e[j], v) - 1e-12
                assert cdf(et[j], 1.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("count", [1, 2, 9, 60, 700, 5000])
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("delta", [0.001, 0.1, 0.9])
    def test_inflated_cdf_rises_until_it_reaches_one(self, count, n, delta):
        # distinct samples: one atom per sample value below the clamp, in
        # order, so a rank where the inflated CDF fell would lose its atom
        # (or make the learned prior's masses negative)
        values = np.arange(1, count + 1) / (count + 1)
        s = SampleMatrix(np.repeat(values[:, None], n, axis=1))
        for d in dominated_empirical(s, delta):
            kept = len(d.support) - 1
            assert d.support.tolist() == [0.0] + values[:kept].tolist()
            assert min(d.probs) > 0.0
            assert cdf(d, values[kept - 1] if kept else 0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [1.5, -0.2, np.nan])
    def test_out_of_range_samples_give_no_prior(self, bad):
        s = SampleMatrix(np.array([[0.3], [0.7], [bad]]))
        with pytest.raises(ValueError, match="in \\[0, 1\\]"):
            dominated_empirical(s, 0.1)

    def test_shape_gives_count_and_n(self):
        s = SampleMatrix(np.zeros((400, 3)))
        assert (s.count, s.n) == (400, 3)

    def test_delta_validation(self):
        s = SampleMatrix(np.array([[0.1], [0.2]]))
        with pytest.raises(ValueError):
            dominated_empirical(s, 0.0)
        with pytest.raises(ValueError):
            dominated_empirical(s, 1.0)

    def test_dominance_frequency(self):
        d = grid_prior()
        runs, hits = 400, 0
        for t in range(runs):
            s = draw_samples(d, 200, np.random.SeedSequence(3, spawn_key=(t,)))
            hits += dominates(d, dominated_empirical(s, 0.1))
        assert hits / runs >= 0.9

    def test_closeness_event_at_large_constant(self):
        # at C=64 the inflation radius fits under the closeness allowance,
        # so domination and closeness hold together in >= 1-delta of trials
        d = grid_prior()
        eps = delta = 0.1
        count = required_samples("downward_closed", 2, 1, eps, delta, 64)
        runs, hits = 300, 0
        for t in range(runs):
            s = draw_samples(d, count, np.random.SeedSequence(7, spawn_key=(t,)))
            et = dominated_empirical(s, delta)
            hits += dominates(d, et) and is_close(d, et, eps, 2, 1)
        sigma = sqrt(delta * (1 - delta) / runs)
        assert hits / runs >= 1 - delta - 3 * sigma

    @pytest.mark.parametrize("n, k, eps", [(2, 1, 0.2), (2, 1, 0.1), (4, 2, 0.1)])
    def test_closeness_event_at_one_constant_across_scales(self, n, k, eps):
        # the constant above, at three scales, on priors learned from the trial loops' count rows
        d, delta, runs = grid_prior(n), 0.1, 300
        count = required_samples("downward_closed", n, k, eps, delta, 64)
        learned = [et for block in _trial_counts(d, count, runs, 7) for et in _learn_counts(d, block, delta)]
        hits = sum(dominates(d, et) and is_close(d, et, eps, n, k) for et in learned)
        sigma = sqrt(delta * (1 - delta) / runs)
        assert hits / runs >= 1 - delta - 3 * sigma


def bits(p):
    """Exact bit patterns of every coordinate's atoms."""
    return [(tuple(map(float.hex, d.support)), tuple(map(float.hex, d.probs))) for d in p]


@st.composite
def sample_matrices(draw):
    """Columns that are constant, drawn from a few values including both zeros, or spread out."""
    n, count = draw(st.integers(1, 3)), draw(st.integers(1, 80))
    cols = []
    for _ in range(n):
        kind = draw(st.sampled_from(["constant", "few", "spread"]))
        if kind == "constant":
            col = [draw(st.sampled_from([0.0, 0.4, 1.0]))] * count
        else:
            pool = st.sampled_from([0.0, -0.0, 0.2, 0.5, 1.0]) if kind == "few" else st.floats(0, 1)
            col = draw(st.lists(pool, min_size=count, max_size=count))
        cols.append(col)
    return SampleMatrix(np.array(cols).T)


class TestLearnerOracle:
    """One sort of the sample matrix gives the per-column np.unique learner's prior bit for bit."""

    @given(sample_matrices(), st.sampled_from([0.01, 0.1, 0.5, 0.9]))
    @settings(max_examples=200, deadline=None)
    def test_random_samples(self, s, delta):
        assert bits(dominated_empirical(s, delta)) == bits(oracles.dominated_empirical(s, delta))

    @pytest.mark.parametrize("count", [1, 2, 30, 400])
    def test_samples_at_zero_merge_with_bottom_atom(self, count):
        vals = np.array([[0.0, 0.7]] * (count // 2) + [[0.6, 0.0]] * (count - count // 2))
        s = SampleMatrix(vals)
        learned = dominated_empirical(s, 0.1)
        assert bits(learned) == bits(oracles.dominated_empirical(s, 0.1))
        assert all(d.support.tolist().count(0.0) == 1 and d.support[0] == 0.0 for d in learned)

    def test_signed_zeros_in_any_order(self):
        # the sort may leave 0.0 and -0.0 in any order, and the learned zero
        # must not depend on which sample comes first
        rng = np.random.default_rng(3)
        long = [0.0] * 20 + [-0.0] * 20 + [0.5] * 5
        for orders in (permutations([0.0, -0.0, 0.5]), (rng.permutation(long) for _ in range(6))):
            learned = []
            for col in orders:
                s = SampleMatrix(np.array(col)[:, None])
                learned.append(bits(dominated_empirical(s, 0.1)))
                assert learned[-1] == bits(oracles.dominated_empirical(s, 0.1))
            assert learned[0][0][0][0] == (0.0).hex()
            assert all(b == learned[0] for b in learned)

    def test_learned_priors_from_draws(self):
        d = grid_prior(3)
        for seed in range(20):
            s = draw_samples(d, 150, seed)
            assert bits(dominated_empirical(s, 0.1)) == bits(oracles.dominated_empirical(s, 0.1))


class TestBlockLearner:
    """A stack of trials' per-atom counts is learned trial by trial as the counted learner learns each
    trial alone; a trial's sample matrix is learned by dominated_empirical, one matrix at a time."""

    @staticmethod
    def stacks(seed, count):
        """Random priors, (trials, bidders, width) stacks of their per-atom counts after zeros up to the
        widest support, many of them 0, and a delta each."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            d = random_product(rng, int(rng.integers(1, 4)))  # the grid holds 0.0
            width = max(len(dj.support) for dj in d)
            trials, total = int(rng.integers(1, 6)), int(rng.integers(1, 41))
            stack = np.zeros((trials, d.n, width), np.int64)
            for j, dj in enumerate(d):
                masses = rng.dirichlet(np.full(len(dj.support), 0.5), size=trials)
                stack[:, j, width - len(dj.support) :] = [rng.multinomial(total, m) for m in masses]
            yield d, stack, float(rng.choice([0.01, 0.1, 0.5, 0.9]))

    def test_random_stacks(self):
        for d, stack, delta in self.stacks(34, 1000):
            learned = _learn_counts(d, stack, delta)
            assert len(learned) == len(stack)
            for counts, prior in zip(stack, learned):
                unpadded = [c[len(c) - len(dj.support) :].tolist() for dj, c in zip(d, counts)]
                assert bits(prior) == bits(oracles.counted_empirical(d, unpadded, delta))

    def test_learned_priors_derive_what_value_dist_derives(self):
        # through the block fill, each prior's hull, slopes and runs included
        for d, stack, delta in self.stacks(35, 300):
            for prior in _learn_counts(d, stack, delta):
                for dj in prior:
                    assert_built_as_value_dist(dj, dj.support.copy(), dj.probs.copy())

    def test_no_trials_give_no_priors(self):
        assert _learn_counts(grid_prior(), np.zeros((0, 2, 10), np.int64), 0.1) == []

    @pytest.mark.parametrize("bad", [1.5, -0.2, nan])
    @pytest.mark.parametrize("trial", [0, 2])
    def test_a_bad_sample_in_any_trial_gives_no_priors(self, bad, trial):
        stack = np.full((3, 40, 2), 0.5)  # enough samples that the bottom atom leaves mass at 0.5
        stack[trial, 1, 1] = bad
        for t, block in enumerate(stack):
            if t == trial:
                with pytest.raises(ValueError, match="^sample values must lie in \\[0, 1\\]$"):
                    dominated_empirical(SampleMatrix(block), 0.1)
            else:
                learned = dominated_empirical(SampleMatrix(block), 0.1)
                assert [d.support.tolist() for d in learned] == [[0.0, 0.5]] * 2

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, nan])
    def test_delta_outside_the_unit_interval(self, delta):
        with pytest.raises(ValueError, match=f"^delta {delta!r} outside \\(0, 1\\)$"):
            _learn_counts(ProductDist((point_mass(0.5),)), np.full((2, 1, 1), 3), delta)


class TestCountedLearner:
    """The per-atom-count learner of the oracles gives the sample learner's prior bit for bit."""

    @staticmethod
    def counts(d, s):
        return [[int((s.values[:, j] == v).sum()) for v in dj.support] for j, dj in enumerate(d)]

    def test_random_priors(self):
        rng = np.random.default_rng(36)
        for _ in range(200):
            d = random_product(rng, int(rng.integers(1, 4)))  # the grid holds 0.0
            count, delta = int(rng.integers(1, 300)), float(rng.choice([0.01, 0.1, 0.5, 0.9]))
            s = draw_samples(d, count, rng)
            want = bits(dominated_empirical(s, delta))
            assert bits(oracles.counted_empirical(d, self.counts(d, s), delta)) == want

    @pytest.mark.parametrize("count", [1, 60, 4239])
    def test_grid_and_binary_priors(self, count):
        for d in (grid_prior(), ProductDist((make_discrete([0.0, 1.0], [0.3, 0.7]), point_mass(0.0)))):
            s = draw_samples(d, count, count)
            want = bits(dominated_empirical(s, 0.1))
            assert bits(oracles.counted_empirical(d, self.counts(d, s), 0.1)) == want


class TestBernsteinRadius:
    def test_zero_mean_leaves_linear_term(self):
        assert bernstein_radius(0.0, 50, 0.1) == pytest.approx(log(20) / 50, abs=1e-15)

    def test_frozen_example(self):
        r = bernstein_radius(0.5, 1000, 0.1)
        assert type(r) is float
        assert r == pytest.approx(sqrt(2 * 0.25 * log(20) / 1000) + log(20) / 1000, abs=1e-15)
        assert r == pytest.approx(0.0416980, abs=1e-6)

    def test_quadratic_condition_grid(self):
        for mean in np.linspace(0.0, 1.0, 10):
            for count in (10, 40, 160, 640, 2560, 10240, 40960, 163840, 655360, 2621440):
                for delta in np.linspace(0.01, 0.5, 10):
                    t = bernstein_radius(float(mean), count, float(delta))
                    rhs = (2 * mean * (1 - mean) + (2 / 3) * t) * log(2 / delta) / count
                    assert t * t >= rhs

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            bernstein_radius(-0.1, 10, 0.1)
        with pytest.raises(ValueError):
            bernstein_radius(0.5, 0, 0.1)
        with pytest.raises(ValueError):
            bernstein_radius(0.5, 10, 1.0)


class TestRequiredSamples:
    def test_frozen_example(self):
        assert required_samples("downward_closed", 2, 1, 0.1, 0.1, 1) == ceil(200 * log(200))
        assert required_samples("downward_closed", 2, 1, 0.1, 0.1, 1) == 1060

    def test_general_dominates_downward_closed(self):
        for n in (2, 3, 4):
            for k in range(1, n + 1):
                for eps in (0.05, 0.1, 0.2):
                    for delta in (0.05, 0.1):
                        gen = required_samples("general", n, k, eps, delta, 2)
                        dc = required_samples("downward_closed", n, k, eps, delta, 2)
                        assert gen >= dc

    def test_halving_eps_quadruples(self):
        big = required_samples("downward_closed", 2, 1, 0.05, 0.1, 1)
        small = required_samples("downward_closed", 2, 1, 0.1, 0.1, 1)
        assert big >= 4 * small

    def test_unknown_setting(self):
        with pytest.raises(ValueError, match="setting"):
            required_samples("matroidal", 2, 1, 0.1, 0.1, 1)

    @pytest.mark.parametrize(
        "args",
        [
            (2, 1, 0.1, 0.1, inf),
            (2, 1, nan, 0.1, 1),
            (2, 1, 0.1, nan, 1),
            (2, inf, 0.1, 0.1, 1),
            (nan, 1, 0.1, 0.1, 1),
            (2, 1, 0.1, 0.1, 0),
        ],
    )
    def test_rejects_non_finite_and_non_positive(self, args):
        with pytest.raises(ValueError, match="finite"):
            required_samples("downward_closed", *args)

    @pytest.mark.parametrize(
        "setting, args",
        [
            ("downward_closed", (2, 1, 1e-300, 0.1, 2)),  # eps**2 underflows to 0.0
            ("downward_closed", (2, 1, 1e-10, 1e-320, 2)),  # eps * delta underflows to 0.0
            ("downward_closed", (2, 1, 0.1, 0.1, 1e307)),  # past the float range
            ("downward_closed", (2, 1, 1e-160, 0.1, 2)),
            ("downward_closed", (2, 1, 0.1, 1e-320, 2)),
            ("general", (2, 0.25, 0.9, 0.5, 2)),  # ln(nk / eps) < 0 < ln(nk / (eps delta))
            ("general", (2, 0.25, 0.9, 0.5, 1000)),
        ],
    )
    def test_refuses_a_count_that_is_not_positive_and_finite(self, setting, args):
        n, k, eps, delta, C = args
        with pytest.raises(ValueError) as exc:
            required_samples(setting, *args)
        named = f"{setting} sample count at n={n}, k={k}, eps={eps}, delta={delta}, C={C} is "
        assert str(exc.value).startswith(named) and str(exc.value).endswith(", not a positive finite number")

    def test_demand_reduction_rescaling(self):
        # scaling allocations by 1/d maps (k, eps) to (k/d, eps/d); the
        # downward-closed count picks up a factor d and the general count
        # is invariant, since k and eps enter it homogeneously
        n, k, eps, delta, C = 3, 2, 0.1, 0.1, 2.0
        for d in (2.0, 4.0):
            dc = required_samples("downward_closed", n, k, eps, delta, C)
            dc_reduced = required_samples("downward_closed", n, k / d, eps / d, delta, C)
            assert abs(dc_reduced - d * dc) <= d
            gen = required_samples("general", n, k, eps, delta, C)
            gen_reduced = required_samples("general", n, k / d, eps / d, delta, C)
            assert abs(gen_reduced - gen) <= 1


D_PLUS = make_discrete([0.0, 1.0], [0.24, 0.76])
D_MINUS = make_discrete([0.0, 1.0], [0.26, 0.74])


class TestHellinger:
    def test_identical_is_zero(self):
        assert hellinger_sq(D_PLUS, D_PLUS) == 0.0

    def test_disjoint_point_masses(self):
        assert hellinger_sq(point_mass(0.2), point_mass(0.9)) == pytest.approx(1.0)

    def test_binary_pair_value_and_bound(self):
        h2 = hellinger_sq(D_PLUS, D_MINUS)
        direct = 0.5 * ((sqrt(0.24) - sqrt(0.26)) ** 2 + (sqrt(0.76) - sqrt(0.74)) ** 2)
        assert h2 == pytest.approx(direct, abs=1e-15)
        assert h2 == pytest.approx(2.667e-4, abs=1e-6)
        assert h2 <= 2 * 0.01**2 * 4

    def test_product_of_identical_is_zero(self):
        p = ProductDist((D_PLUS, D_PLUS))
        assert hellinger_sq_product(p, p) == 0.0

    def test_product_form_below_coordinate_sum(self):
        n = 4
        p = ProductDist((D_PLUS,) * n)
        q = ProductDist((D_MINUS,) * n)
        exact = hellinger_sq_product(p, q)
        assert exact <= n * 2.667e-4 + 1e-9
        assert exact <= sum(hellinger_sq(D_PLUS, D_MINUS) for _ in range(n)) + 1e-15

    def test_one_disjoint_coordinate_saturates(self):
        p = ProductDist((D_PLUS, point_mass(0.2)))
        q = ProductDist((D_PLUS, point_mass(0.9)))
        assert hellinger_sq_product(p, q) == pytest.approx(1.0)

    def test_subadditivity_random_products(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            ps, qs = [], []
            for _ in range(n):
                support = sorted(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], 3, replace=False))
                w1 = rng.integers(1, 9, 3).astype(float)
                w2 = rng.integers(1, 9, 3).astype(float)
                ps.append(make_discrete(support, w1 / w1.sum()))
                qs.append(make_discrete(support, w2 / w2.sum()))
            p, q = ProductDist(tuple(ps)), ProductDist(tuple(qs))
            exact = hellinger_sq_product(p, q)
            coord_sum = sum(hellinger_sq(a, b) for a, b in zip(ps, qs))
            assert exact <= coord_sum + 1e-12

    def test_expectation_difference_bound(self):
        # |E_P f - E_Q f| <= sqrt(2) H(P, Q) for f into [0, 1]
        rng = np.random.default_rng(17)
        p = make_discrete([0.0, 0.4, 1.0], [0.2, 0.5, 0.3])
        q = make_discrete([0.0, 0.4, 0.7], [0.4, 0.1, 0.5])
        merged = sorted(set(p.support) | set(q.support))
        pm = dict(zip(p.support, p.probs))
        qm = dict(zip(q.support, q.probs))
        h = sqrt(hellinger_sq(p, q))
        for _ in range(100):
            f = {v: float(rng.random()) for v in merged}
            fp = sum(pm.get(v, 0.0) * f[v] for v in merged)
            fq = sum(qm.get(v, 0.0) * f[v] for v in merged)
            assert abs(fp - fq) <= sqrt(2) * h + 1e-12
