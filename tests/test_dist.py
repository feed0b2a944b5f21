"""Distribution construction, quantile transforms, dominance, and closeness."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from myersonlab.dist import (
    ProductDist,
    ValueDist,
    cdf,
    cdf_left,
    discretize_uniform_with_atom,
    dominates,
    is_close,
    is_close_uniform,
    make_discrete,
    min_closeness_eps,
    min_uniform_closeness_eps,
    point_mass,
    product_dist,
    quantile_of_value,
    scale_values,
    uniform_grid,
    value_of_quantile,
)
from myersonlab.feasible import feasible_from_json
from myersonlab.learn import dominated_empirical, draw_samples


@st.composite
def value_dists(draw, max_atoms=5):
    m = draw(st.integers(1, max_atoms))
    vals = draw(st.lists(st.integers(0, 1000), min_size=m, max_size=m, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    total = sum(weights)
    return make_discrete([v / 1000 for v in vals], [w / total for w in weights])


TWO_POINT = make_discrete([0.1, 1.0], [0.9, 0.1])

# JSON inputs for the parsers: well-formed documents, and arbitrary nestings
# of the keys and scalars those documents use
WELL_FORMED_JSON = st.one_of(
    value_dists().map(ValueDist.to_json),
    st.lists(value_dists().map(ValueDist.to_json), min_size=1, max_size=3),
    st.builds(
        lambda kind, n, k: {"type": kind, "n": n, "k": k},
        st.sampled_from(["uniform_matroid", "all_or_nothing"]),
        st.integers(1, 4),
        st.integers(1, 4),
    ),
    st.sampled_from([
        {"type": "sets", "n": 3, "sets": [[], [0], [1], [2], [1, 2]]},
        {"type": "vertices", "vectors": [[0, 0], [0.5, 0.5]]},
    ]),
)
JSON_KEYS = ["support", "probs", "type", "n", "k", "sets", "vectors"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(-1.0, 2.0) | st.just(math.nan)
    | st.sampled_from(["", "0.5", "sets", "uniform_matroid", "all_or_nothing", "vertices"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(JSON_KEYS), inner, max_size=4),
    max_leaves=12,
)


class TestMakeDiscrete:
    def test_point_mass(self):
        d = make_discrete([0.5], [1.0])
        assert d.support == (0.5,) and d.probs == (1.0,)

    def test_sorts_support(self):
        d = make_discrete([1.0, 0.1], [0.1, 0.9])
        assert d.support == (0.1, 1.0)
        assert d.probs == (0.9, 0.1)

    def test_merges_duplicates(self):
        d = make_discrete([0.3, 0.3], [0.5, 0.5])
        assert d.support == (0.3,) and d.probs == (1.0,)

    def test_drops_zero_atoms(self):
        d = make_discrete([0.2, 0.7], [1.0, 0.0])
        assert d.support == (0.2,)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="values"):
            make_discrete([0.1, 0.2], [1.0])

    def test_bad_mass_sum(self):
        with pytest.raises(ValueError, match="sum"):
            make_discrete([0.1], [0.5])

    def test_value_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            make_discrete([1.5, 0.0], [0.5, 0.5])

    def test_negative_probability(self):
        with pytest.raises(ValueError, match="negative"):
            make_discrete([0.1, 0.2], [1.2, -0.2])

    @pytest.mark.parametrize(
        "values, probs",
        [
            ([0.2, 0.8], [0.5, math.nan]),
            ([0.2, math.nan], [0.5, 0.5]),
            ([0.2, 0.8], [math.inf, 0.5]),
        ],
    )
    def test_non_finite(self, values, probs):
        with pytest.raises(ValueError):
            make_discrete(values, probs)

    @pytest.mark.parametrize("probs", [[1e-20, 0.5, 0.5], [1e-13, 0.5 + 1e-13, 0.5]])
    def test_lowest_mass_lost_in_tail_sum(self, probs):
        # the upper atoms alone sum to 1 or more, so the lowest would sit at quantile 1 twice
        with pytest.raises(ValueError, match="lost"):
            make_discrete([0.1, 0.5, 0.9], probs)

    def test_tiny_lowest_mass_kept_when_it_shows(self):
        d = make_discrete([0.1, 0.5, 0.9], [3e-13, 0.5, 0.5 - 3e-13])
        assert d._above[1] < 1.0 == d._above[0]


def bits(d):
    """Exact bit patterns of a distribution's atoms; tells 0.0 from -0.0."""
    return tuple(map(float.hex, d.support)), tuple(map(float.hex, d.probs))


def outcome(build, values, probs):
    try:
        return bits(build(values, probs))
    except ValueError as exc:
        return str(exc)


POOL = [0.0, -0.0, 0.1, 0.25, 1 / 3, 0.5, 0.7, 1.0]
# atoms that break a check: a value outside [0, 1] or NaN, or a mass below
# -MASS_TOL, which raw_atoms offsets so the masses still sum to 1
BAD_ATOMS = [(1.5, 0.0), (-0.25, 0.0), (math.nan, 0.0), (0.5, -0.1), (0.5, -1e-13), (1.5, -0.1)]


@st.composite
def raw_atoms(draw):
    """Unsorted values with duplicates, heavy repeats, signed zeros and zero masses."""
    values = draw(st.lists(st.sampled_from(POOL) | st.floats(0.0, 1.0), min_size=1, max_size=20))
    if draw(st.booleans()):
        values += [draw(st.sampled_from(POOL))] * draw(st.integers(9, 14))
    weights = draw(st.lists(st.integers(0, 1000), min_size=len(values), max_size=len(values)))
    weights[0] = max(weights[0], 1)
    probs = [w / sum(weights) for w in weights]
    for v, p in draw(st.lists(st.sampled_from(BAD_ATOMS), max_size=2)):
        values += [v, draw(st.sampled_from(POOL))]
        probs += [p, -p]
    order = draw(st.permutations(range(len(values))))
    return [values[i] for i in order], [probs[i] for i in order]


class TestMakeDiscreteOracle:
    """The sort-and-bincount merge builds what a dict merge in input order builds, bit for bit."""

    @given(raw_atoms())
    @settings(max_examples=300, deadline=None)
    def test_random_atoms(self, atoms):
        assert outcome(make_discrete, *atoms) == outcome(oracles.make_discrete, *atoms)

    def test_ten_copies_sum_left_to_right(self):
        # a pairwise sum of ten 0.1 masses rounds to 1.0; left to right it does not
        got = make_discrete([0.3] * 10, [0.1] * 10)
        assert bits(got) == bits(oracles.make_discrete([0.3] * 10, [0.1] * 10))
        assert got.probs == (sum([0.1] * 10),) != (1.0,)

    @pytest.mark.parametrize("values", [[-0.0, 0.5, 0.0], [0.0, 0.5, -0.0], [0.5, -0.0, 0.0]])
    def test_signed_zeros_keep_the_first(self, values):
        probs = [0.25, 0.5, 0.25]
        got = make_discrete(values, probs)
        assert bits(got) == bits(oracles.make_discrete(values, probs))
        first_zero = next(v for v in values if v == 0.0)
        assert math.copysign(1.0, got.support[0]) == math.copysign(1.0, first_zero)


class TestCdfAndQuantiles:
    def test_cdf_examples(self):
        assert cdf(TWO_POINT, 0.1) == pytest.approx(0.9, abs=1e-12)
        assert cdf(TWO_POINT, 0.05) == 0.0
        assert cdf(TWO_POINT, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_quantile_examples(self):
        assert quantile_of_value(TWO_POINT, 0.1) == pytest.approx(0.1, abs=1e-12)
        assert quantile_of_value(TWO_POINT, 0.05) == pytest.approx(1.0, abs=1e-12)
        assert quantile_of_value(TWO_POINT, 1.0) == 0.0

    def test_value_of_quantile_examples(self):
        assert value_of_quantile(TWO_POINT, 0.05) == 1.0
        assert value_of_quantile(TWO_POINT, 0.5) == 0.1
        assert value_of_quantile(TWO_POINT, 1.0) == 0.0

    def test_value_of_quantile_range(self):
        with pytest.raises(ValueError):
            value_of_quantile(TWO_POINT, 1.5)

    # NaN is placed by no order; bisecting for it would read the top or bottom atom
    NAN_CASE = make_discrete([0.2, 0.5, 0.9], [0.3, 0.3, 0.4])

    def test_cdf_of_nan_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            cdf(self.NAN_CASE, float("nan"))

    def test_cdf_left_of_nan_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            cdf_left(self.NAN_CASE, float("nan"))

    def test_quantile_of_nan_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            quantile_of_value(self.NAN_CASE, float("nan"))

    @given(value_dists(), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_quantile_complements_cdf(self, d, v):
        assert quantile_of_value(d, v) + cdf(d, v) == pytest.approx(1.0, abs=1e-12)

    @given(value_dists())
    @settings(max_examples=60, deadline=None)
    def test_cdf_monotone_right_continuous(self, d):
        pts = sorted(set(d.support) | {0.0, 1.0})
        vals = [cdf(d, v) for v in pts]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        for v in d.support:
            assert cdf(d, v + 1e-9) == pytest.approx(cdf(d, v), abs=1e-12)
            assert cdf_left(d, v) == pytest.approx(cdf(d, v) - d.probs[d.support.index(v)], abs=1e-12)

    @given(value_dists())
    @settings(max_examples=60, deadline=None)
    def test_quantile_galois(self, d):
        # every atom is the lowest value of its quantile level, so the
        # round trip is exact on the support
        for v in d.support:
            assert value_of_quantile(d, quantile_of_value(d, v)) == v
        for v in [0.05, 0.33, 0.77]:
            assert value_of_quantile(d, quantile_of_value(d, v)) <= v + 1e-12


class TestDominates:
    def test_gadget_pair(self):
        big = product_dist(point_mass(1.0), point_mass(1.0))
        small = product_dist(TWO_POINT, TWO_POINT)
        assert dominates(big, small)
        assert not dominates(small, big)

    def test_reflexive(self):
        p = product_dist(TWO_POINT)
        assert dominates(p, p)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            dominates(product_dist(TWO_POINT), product_dist(TWO_POINT, TWO_POINT))

    def test_mutual_dominance_means_equality(self):
        a = product_dist(make_discrete([0.2, 0.8], [0.5, 0.5]))
        b = product_dist(make_discrete([0.2, 0.8, 0.8], [0.5, 0.25, 0.25]))
        assert dominates(a, b) and dominates(b, a)
        assert a[0].support == b[0].support
        assert a[0].probs == pytest.approx(b[0].probs, abs=1e-12)

    @given(value_dists(), value_dists())
    @settings(max_examples=80, deadline=None)
    def test_mutual_dominance_property(self, x, y):
        a, b = product_dist(x), product_dist(y)
        if dominates(a, b) and dominates(b, a):
            assert x.support == y.support
            assert all(abs(p - q) <= 1e-9 for p, q in zip(x.probs, y.probs))


def lipschitz_close_pair(n, k, eps):
    lo = 1.0 / (2 * n)
    shift = eps / (4 * n * math.sqrt(k))
    d = ProductDist(tuple(make_discrete([0.0, 1.0], [lo, 1 - lo]) for _ in range(n)))
    dt = ProductDist(
        tuple(make_discrete([0.0, 1.0], [lo - shift, 1 - lo + shift]) for _ in range(n))
    )
    return d, dt


class TestCloseness:
    def test_identical_is_close(self):
        p = product_dist(TWO_POINT, TWO_POINT)
        assert is_close(p, p, 0.01, 2, 1)
        assert is_close_uniform(p, p, 0.01, 2, 1)

    def test_binary_shift_pair_is_close(self):
        # CDF gap eps/(4 n sqrt(k)) fits under the variance-sensitive bound
        d, dt = lipschitz_close_pair(2, 1, 0.01)
        assert is_close(d, dt, 0.01, 2, 1)

    def test_point_masses_far_apart(self):
        a = product_dist(point_mass(0.0))
        b = product_dist(point_mass(1.0))
        assert not is_close(a, b, 0.1, 1, 1)

    def test_uniform_boundary_gap(self):
        a = product_dist(point_mass(0.5), point_mass(0.5))
        b = product_dist(make_discrete([0.0, 0.5], [0.05, 0.95]), point_mass(0.5))
        # gap 0.05 against bound eps / sqrt(nk) = 0.1 / 2
        assert is_close_uniform(a, b, 0.1, 2, 2)
        assert not is_close_uniform(a, b, 0.09, 2, 2)

    def test_eps_range_errors(self):
        p = product_dist(TWO_POINT)
        with pytest.raises(ValueError):
            is_close(p, p, 0.0, 1, 1)
        with pytest.raises(ValueError):
            is_close_uniform(p, p, 1.5, 1, 1)
        for close in (is_close, is_close_uniform):
            for n, k in ((math.nan, 1), (2, math.nan)):
                with pytest.raises(ValueError, match="at least 1"):
                    close(p, p, 0.1, n, k)

    @given(value_dists(), value_dists(), st.floats(0.01, 1.0), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_close_implies_uniformly_close(self, x, y, eps, n, k):
        a, b = product_dist(x), product_dist(y)
        if is_close(a, b, eps, n, k):
            assert is_close_uniform(a, b, eps, n, k)

    @given(value_dists(), value_dists(), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_min_closeness_eps_is_tight(self, x, y, n, k):
        a, b = product_dist(x), product_dist(y)
        eps = min_closeness_eps(a, b, n, k)
        if 0.0 < eps <= 1.0:
            assert is_close(a, b, min(1.0, eps * (1 + 1e-9) + 1e-12), n, k)
        if 0.005 < eps and eps * 0.9 <= 1.0:
            assert not is_close(a, b, eps * 0.9, n, k)
        eps_u = min_uniform_closeness_eps(a, b, n, k)
        if 0.0 < eps_u <= 1.0:
            assert is_close_uniform(a, b, min(1.0, eps_u * (1 + 1e-9) + 1e-12), n, k)


class TestScaleValues:
    def test_point_mass(self):
        assert scale_values(point_mass(1.0), 0.5).support == (0.5,)

    def test_two_point(self):
        d = scale_values(TWO_POINT, 1 / 3)
        assert d.support == pytest.approx((0.1 / 3, 1 / 3), abs=1e-15)
        assert d.probs == (0.9, 0.1)

    def test_identity(self):
        assert scale_values(TWO_POINT, 1.0) == TWO_POINT

    def test_factor_range(self):
        with pytest.raises(ValueError):
            scale_values(TWO_POINT, 1.5)
        with pytest.raises(ValueError):
            scale_values(TWO_POINT, 0.0)


class TestJson:
    def test_value_dist_round_trip(self):
        obj = TWO_POINT.to_json()
        assert obj == {"support": [0.1, 1.0], "probs": [0.9, 0.1]}
        assert ValueDist.from_json(obj) == TWO_POINT

    def test_parsing_normalizes(self):
        d = ValueDist.from_json({"support": [1.0, 0.1], "probs": [0.1, 0.9]})
        assert d == TWO_POINT

    def test_product_round_trip(self):
        p = product_dist(TWO_POINT, point_mass(0.5))
        assert ProductDist.from_json(p.to_json()) == p

    @pytest.mark.parametrize(
        "obj",
        [{"support": 5, "probs": [1]}, {"support": [[0.5]], "probs": [1]}, {"probs": [1]},
         [TWO_POINT.to_json()], None],
    )
    def test_malformed_value_dist(self, obj):
        with pytest.raises(ValueError):
            ValueDist.from_json(obj)

    @pytest.mark.parametrize("obj", [TWO_POINT.to_json(), 5, [5], [{"support": 5, "probs": [1]}]])
    def test_malformed_product(self, obj):
        with pytest.raises(ValueError):
            ProductDist.from_json(obj)

    @given(st.one_of(JSON_VALUES, WELL_FORMED_JSON))
    @settings(max_examples=300, deadline=None)
    def test_json_round_trips_or_raises_value_error(self, obj):
        for parse, same in (
            (ValueDist.from_json, lambda x, y: x == y),
            (ProductDist.from_json, lambda x, y: x == y),
            (feasible_from_json, lambda x, y: x.vertices == y.vertices),
        ):
            try:
                parsed = parse(obj)
            except ValueError:
                continue
            assert same(parse(parsed.to_json()), parsed)


class TestHelpers:
    def test_uniform_grid(self):
        d = uniform_grid([0.2, 0.4, 0.6])
        assert d.probs == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_discretized_atom_mixture(self):
        d = discretize_uniform_with_atom(0.5, 0.2, 0.01)
        assert sum(d.probs) == pytest.approx(1.0, abs=1e-12)
        assert 0.5 in d.support
        idx = d.support.index(0.5)
        assert d.probs[idx] >= 0.2


@st.composite
def product_pairs(draw):
    n = draw(st.integers(1, 3))
    return tuple(ProductDist(tuple(draw(value_dists(8)) for _ in range(n))) for _ in range(2))


class TestCheckpointOracle:
    """One merge walk over prefix sums gives the scalar point-by-point verdicts exactly."""

    @staticmethod
    def assert_agrees(a, b, n, k):
        assert dominates(a, b) == oracles.dominates(a, b)
        eps_close = min_closeness_eps(a, b, n, k)
        eps_uniform = min_uniform_closeness_eps(a, b, n, k)
        assert eps_close == oracles.min_closeness_eps(a, b, n, k)
        assert eps_uniform == oracles.min_uniform_closeness_eps(a, b, n, k)
        # at the smallest passing eps the comparison tolerance decides the verdict
        for eps in {1.0, min(1.0, max(eps_close, 1e-3)), min(1.0, max(eps_uniform, 1e-3))}:
            assert is_close(a, b, eps, n, k) == oracles.is_close(a, b, eps, n, k)
            assert is_close_uniform(a, b, eps, n, k) == oracles.is_close_uniform(a, b, eps, n, k)

    @given(product_pairs(), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_random_pairs(self, pair, n, k):
        self.assert_agrees(*pair, n, k)

    def test_gaps_within_tolerance(self):
        # CDFs apart by rounding only need no eps at all
        a = make_discrete([0.1, 0.2, 0.3], [0.1, 0.2, 0.7])
        b = make_discrete([0.1, 0.2, 0.3], [0.1 + 1e-13, 0.2 - 1e-13, 0.7])
        for x, y in ((a, b), (b, a)):
            self.assert_agrees(product_dist(x), product_dist(y), 2, 1)
            assert min_closeness_eps(product_dist(x), product_dist(y), 2, 1) == 0.0

    def test_learned_prior(self):
        prior = ProductDist(tuple(discretize_uniform_with_atom(v, 0.1, 0.01) for v in (0.55, 0.8)))
        for seed in range(3):
            learned = dominated_empirical(draw_samples(prior, 400, seed), 0.1)
            self.assert_agrees(prior, learned, 2, 1)
            self.assert_agrees(learned, prior, 2, 1)
