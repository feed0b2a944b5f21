"""Distribution construction, quantile transforms, dominance, and closeness."""

import math
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import myersonlab.dist as dist_module
import oracles
from myersonlab.dist import (
    _GATE,
    MASS_TOL,
    ProductDist,
    ValueDist,
    _curve,
    _derive,
    _each,
    _runs,
    discretize_uniform_with_atom,
    dominates,
    ironing_intervals,
    is_close,
    is_close_uniform,
    make_discrete,
    min_closeness_eps,
    point_mass,
)
from myersonlab.feasible import feasible_from_json
from myersonlab.learn import dominated_empirical, draw_samples

from fuzz import scale_values, uniform_grid


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
        # binary vectors, repeated and out of order: from_vertices rebuilds them as sets
        {"type": "vertices", "vectors": [[0, 1], [1, 0], [0, 0], [0, 1]]},
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
        assert d.support.tolist() == [0.5] and d.probs.tolist() == [1.0]

    def test_sorts_support(self):
        d = make_discrete([1.0, 0.1], [0.1, 0.9])
        assert d.support.tolist() == [0.1, 1.0]
        assert d.probs.tolist() == [0.9, 0.1]

    def test_merges_duplicates(self):
        d = make_discrete([0.3, 0.3], [0.5, 0.5])
        assert d.support.tolist() == [0.3] and d.probs.tolist() == [1.0]

    def test_drops_zero_atoms(self):
        d = make_discrete([0.2, 0.7], [1.0, 0.0])
        assert d.support.tolist() == [0.2]

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

    @pytest.mark.parametrize(
        "values, probs, match",
        [
            ([], [], "sum to 0.0"),
            ([0.2, 0.8], [1.0, math.nan], "sum to nan"),  # not a point mass at 0.2
        ],
    )
    def test_sum_is_checked_on_the_merged_atoms(self, values, probs, match):
        with pytest.raises(ValueError, match=match):
            make_discrete(values, probs)

    @pytest.mark.parametrize("v", [1.5, -0.25, math.nan])
    def test_point_mass_out_of_range(self, v):
        with pytest.raises(ValueError, match="in \\[0, 1\\]"):
            point_mass(v)

    @pytest.mark.parametrize("probs", [[1e-20, 0.5, 0.5], [1e-13, 0.5 + 1e-13, 0.5]])
    def test_lowest_mass_lost_in_tail_sum(self, probs):
        # the upper atoms alone sum to 1 or more, so the lowest would sit at quantile 1 twice
        with pytest.raises(ValueError, match="lost"):
            make_discrete([0.1, 0.5, 0.9], probs)

    def test_tiny_lowest_mass_kept_when_it_shows(self):
        d = make_discrete([0.1, 0.5, 0.9], [3e-13, 0.5, 0.5 - 3e-13])
        assert d._above[1] < 1.0 == d._above[0]


def grid_atoms(count, atom=0, value=None, mass=None):
    """count evenly spaced atoms of equal mass, with one atom's value or mass replaced."""
    support, probs = [k / count for k in range(count)], [1 / count] * count
    if value is not None:
        support[atom] = value
    if mass is not None:  # the next atom up takes the difference
        probs[atom + 1] += probs[atom] - mass
        probs[atom] = mass
    return tuple(support), tuple(probs)


class TestValueDistChecks:
    """A ValueDist built directly is held to what make_discrete would accept."""

    @pytest.mark.parametrize(
        "support, probs, match",
        [
            ((0.2, 0.8), (1.0,), "2 values but 1 probabilities"),
            ((0.5, 0.2), (0.5, 0.5), "increase strictly"),
            ((0.5, 0.5), (0.5, 0.5), "increase strictly"),
            ((0.2, 1.5), (0.5, 0.5), "in \\[0, 1\\]"),
            ((-0.1, 0.5), (0.5, 0.5), "in \\[0, 1\\]"),
            ((0.2, math.nan, 0.8), (0.25, 0.25, 0.5), "in \\[0, 1\\]"),
            ((math.nan,), (1.0,), "in \\[0, 1\\]"),
            ((0.2, 0.5, 0.8), (0.6, 0.0, 0.4), "nonpositive"),
            ((0.2, 0.8), (1.2, -0.2), "nonpositive"),
            ((0.5, 0.2), (0.3, 0.3), "sum to 0.6"),
            ((0.2, 0.8), (0.5, math.nan), "sum to nan"),
            ((), (), "sum to 0.0"),
            # past the gate, where the sums and checks run on arrays
            (*grid_atoms(200, 5, mass=0.0), "nonpositive probability 0.0"),
            (*grid_atoms(200, 5, mass=math.nan), "sum to nan"),
            (*grid_atoms(200, 7, value=0.006), "increase strictly"),
            (*grid_atoms(200, 199, value=1.5), "in \\[0, 1\\]"),
            (grid_atoms(200)[0], (1e-20,) + (1 / 199,) * 199, "lost"),
            # two atoms: a NaN value, and a lowest mass that the sum above it loses
            ((0.2, math.nan), (0.5, 0.5), "in \\[0, 1\\]"),
            ((0.1, 0.5), (1e-20, 1.0), "lost"),
            # at the gate, the most atoms whose sums and checks run on lists
            (grid_atoms(128)[0], grid_atoms(127)[1], "128 values but 127 probabilities"),
            (grid_atoms(128)[0], (1 / 256,) * 128, "sum to 0.5"),
            (*grid_atoms(128, 5, mass=0.0), "nonpositive probability 0.0"),
            (*grid_atoms(128, 5, mass=math.nan), "sum to nan"),
            (*grid_atoms(128, 7, value=6 / 128), "increase strictly"),
            (*grid_atoms(128, 7, value=5 / 128), "increase strictly"),
            (*grid_atoms(128, 127, value=1.5), "in \\[0, 1\\]"),
            (*grid_atoms(128, 0, value=-0.1), "in \\[0, 1\\]"),
            (*grid_atoms(128, 64, value=math.nan), "in \\[0, 1\\]"),
            (grid_atoms(128)[0], (1e-20,) + (1 / 128,) * 126 + (1 / 64,), "lost"),
            # not flat, on both sides of the gate: refused before any sum
            (grid_atoms(200)[0], np.reshape(grid_atoms(200)[1], (200, 1)),
             "flat, not \\(200,\\) and \\(200, 1\\)"),
            (np.repeat(grid_atoms(200)[0], 2).reshape(200, 2), grid_atoms(200)[1],
             "flat, not \\(200, 2\\) and \\(200,\\)"),
            (((0.1, 0.2), (0.3, 0.4)), (0.5, 0.5), "flat, not \\(2, 2\\) and \\(2,\\)"),
            ((0.2, 0.8), ((0.5,), (0.5,)), "flat, not \\(2,\\) and \\(2, 1\\)"),
            # scalars have no length: refused as not flat, not by len()
            (0.5, 1.0, "flat, not \\(\\) and \\(\\)"),
            ((0.5,), 1.0, "flat, not \\(1,\\) and \\(\\)"),
            (0.5, (1.0,), "flat, not \\(\\) and \\(1,\\)"),
        ],
    )
    def test_rejected(self, support, probs, match):
        with pytest.raises(ValueError, match=match):
            ValueDist(support, probs)

    def test_mass_within_tolerance_is_accepted(self):
        assert ValueDist((0.2, 0.8), (0.5, 0.5 + 1e-13)).support.tolist() == [0.2, 0.8]

    @pytest.mark.parametrize(
        "support, probs",
        [
            ((1,), (1,)),
            (np.array([0.25, 0.75]), np.array([0.5, 0.5])),
            (np.arange(1, 201) / 200, np.full(200, 0.005)),
        ],
    )
    def test_atoms_are_kept_as_read_only_float_arrays(self, support, probs):
        d = ValueDist(support, probs)
        for kept, given in ((d.support, support), (d.probs, probs)):
            assert isinstance(kept, np.ndarray) and kept.dtype == float and not kept.flags.writeable
            assert kept.tolist() == np.asarray(given, dtype=float).tolist()
            assert kept is not given and not np.shares_memory(kept, given)


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

    @pytest.mark.parametrize(
        "values, probs",
        [
            ([1.5], [0.5]),  # a bad atom is named before a bad sum
            ([0.2, 0.5, 0.8], [1.0, -9e-13, -9e-13]),  # tolerated negatives dropped in the merge
            ([0.2, 0.8], [1.0, math.nan]),
            ([0.2, 0.8], [-math.inf, 0.5]),
            ([], []),
            ([0.3, 0.1, 0.3], [0.25] * 3),
        ],
    )
    def test_check_order(self, values, probs):
        assert outcome(make_discrete, values, probs) == outcome(
            oracles.make_discrete, values, probs
        )

    def test_ten_copies_sum_left_to_right(self):
        # a pairwise sum of ten 0.1 masses rounds to 1.0; left to right it does not
        got = make_discrete([0.3] * 10, [0.1] * 10)
        assert bits(got) == bits(oracles.make_discrete([0.3] * 10, [0.1] * 10))
        assert got.probs.tolist() == [sum([0.1] * 10)] != [1.0]

    @pytest.mark.parametrize("values", [[-0.0, 0.5, 0.0], [0.0, 0.5, -0.0], [0.5, -0.0, 0.0]])
    def test_signed_zeros_keep_the_first(self, values):
        probs = [0.25, 0.5, 0.25]
        got = make_discrete(values, probs)
        assert bits(got) == bits(oracles.make_discrete(values, probs))
        first_zero = next(v for v in values if v == 0.0)
        assert math.copysign(1.0, got.support[0]) == math.copysign(1.0, first_zero)


FIELDS = ("support", "probs", "_below", "_above", "_hull", "_slopes", "_runs")
# rows ironed over some of their atoms
IRONED_ROWS = [
    ((0.1, 0.2, 0.3, 0.4, 1.0), (0.71, 0.03, 0.03, 0.03, 0.2)),
    ((0.1, 0.3, 0.4, 0.9), (0.2, 0.3, 0.3, 0.2)),
    ((0.0, 0.1, 0.5, 0.55, 1.0), (0.4, 0.1, 0.2, 0.1, 0.2)),
]
# rows that ValueDist refuses, each for one of its checks; () is a row of no atoms
BAD_ROWS = [
    ((0.2, 0.8), (0.5, 0.4)),
    ((0.2, 0.8), (0.5, math.nan)),
    ((0.2, 0.5, 0.8), (0.6, 0.0, 0.4)),
    ((0.2, 0.8), (1.2, -0.2)),
    ((0.5, 0.2), (0.5, 0.5)),
    ((0.5, 0.5), (0.5, 0.5)),
    ((0.2, 1.5), (0.5, 0.5)),
    ((-0.1, 0.5), (0.5, 0.5)),
    ((0.2, math.nan, 0.8), (0.25, 0.25, 0.5)),
    ((math.nan,), (1.0,)),
    ((0.1, 0.5), (1e-20, 1.0)),
    ((), ()),
]


def equal_revenue_row(m, scale):
    """m atoms whose revenue points all lie on one level line, in floats: atom k is worth scale * 2**(k + 1 - m)
    and it and the atoms above it carry 2**-k, so each point's revenue is scale * 2**(1 - m)."""
    return (tuple(scale * 2.0 ** (k + 1 - m) for k in range(m)),
            tuple(2.0 ** -(k + 1) for k in range(m - 1)) + (2.0 ** (1 - m),))


def collinear_row(m, scale):
    """m atoms whose revenue points all lie on one sloped line, in floats: atom k is worth scale * (1/4 + 2**(k - m - 1))
    and it and the atoms above it carry 2**-k, so each point's revenue is scale * (2**-(m + 1) + q / 4)."""
    return (tuple(scale * (0.25 + 2.0 ** (k - m - 1)) for k in range(m)),
            tuple(2.0 ** -(k + 1) for k in range(m - 1)) + (2.0 ** (1 - m),))


def on_32(values, weights):
    return tuple(v / 32 for v in values), tuple(w / sum(weights) for w in weights)


# rows whose thinning drops one point a pass, four passes in a row
ONE_DROP_ROWS = [
    on_32((7, 8, 9, 10, 11, 19), (8, 6, 4, 8, 1, 8)),
    on_32((4, 5, 7, 11, 16, 28, 30), (2, 8, 1, 1, 2, 1, 4)),
    on_32((1, 7, 9, 11, 13, 16, 28, 32), (7, 7, 5, 6, 1, 3, 2, 7)),
]


def cascade_row():
    """120 atoms whose thinning drops one point a pass, ten passes in a row: their revenue points lie on the concave
    arc q / 2 - q**2 / 10**4 at q = k / 120, but for the lowest atom's, raised as far as the atom above it allows."""
    q = np.arange(1, 121) / 120
    r = 0.5 * q - 1e-4 * q * q
    r[-1] = np.nextafter(r[-2] / q[-2], 0.0)
    return tuple((r / q)[::-1].tolist()), tuple((q - np.append(0.0, q[:-1]))[::-1].tolist())


def concave_row(m):
    """m evenly spaced atoms of equal mass: a concave revenue curve, from which thinning drops nothing."""
    return tuple((k + 1) / (m + 1) for k in range(m)), (1 / m,) * m


def repeated_row(m, atom):
    """m evenly spaced atoms, atom's mass too small to move a tail sum: it shares its quantile with the atom above."""
    return grid_atoms(m, atom, mass=1e-20)


@st.composite
def fill_rows(draw):
    """A row of atoms: random grid atoms, an ironed row, an equal-revenue or collinear row, a row whose thinning
    drops one point a pass, a concave row, a row with a repeated quantile or one atom."""
    kinds = ["random", "ironed", "equal-revenue", "collinear", "one-drop", "concave", "repeated", "one-atom"]
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        m = draw(st.integers(2, 8))
        values = sorted(draw(st.lists(st.integers(0, 1000), min_size=m, max_size=m, unique=True)))
        weights = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
        return tuple(v / 1000 for v in values), tuple(w / sum(weights) for w in weights)
    if kind == "ironed":
        return draw(st.sampled_from(IRONED_ROWS))
    if kind == "equal-revenue":
        return equal_revenue_row(draw(st.integers(3, 6)), draw(st.sampled_from([1.0, 0.5, 0.125])))
    if kind == "collinear":
        return collinear_row(draw(st.integers(3, 6)), draw(st.sampled_from([1.0, 0.5, 0.125])))
    if kind == "one-drop":
        return draw(st.sampled_from(ONE_DROP_ROWS))
    if kind == "concave":
        return concave_row(draw(st.integers(2, 8)))
    if kind == "repeated":
        m = draw(st.integers(3, 8))
        return repeated_row(m, draw(st.integers(1, m - 2)))
    return (draw(st.integers(0, 8)) / 8,), (1.0,)


@st.composite
def wide_rows(draw):
    """A row of _GATE + 1 to 300 atoms: random grid atoms, a concave row or a row with a repeated quantile."""
    m = draw(st.integers(_GATE + 1, 300))
    kind = draw(st.sampled_from(["random", "concave", "repeated"]))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        weights = rng.integers(1, 10, m)
        return tuple(np.sort(rng.choice(10_000, m, replace=False)) / 10_000), tuple(weights / weights.sum())
    if kind == "concave":
        return concave_row(m)
    return repeated_row(m, draw(st.integers(1, m - 2)))


def laid(rows):
    """Rows of (support, probs) laid end to end: the arrays of atoms and each row's start."""
    support = np.array([v for s, _ in rows for v in s], dtype=float)
    probs = np.array([p for _, ps in rows for p in ps], dtype=float)
    return support, probs, np.cumsum([0] + [len(s) for s, _ in rows])


def fill(rows):
    """The priors of rows of (support, probs) laid end to end, each holding views of its row of the block fill's
    arrays; where the fill declines the block, _each refuses its first bad row."""
    support, probs, starts = laid(rows)
    derived = _derive(support, probs, starts)
    if derived is None:
        return _each(support, probs, starts)
    values, masses, below, above, hull, firsts, slopes, first = derived
    runs, counts = np.nonzero(first)[1], first.sum(axis=1)
    for arr in (values, masses, below, above, hull, slopes, runs):
        arr.setflags(write=False)
    cuts = counts.cumsum()
    spans = zip(np.diff(starts).tolist(), firsts.tolist(), [*firsts[1:].tolist(), len(hull)],
                (cuts - counts).tolist(), cuts.tolist())
    dists = []
    for j, (m, h0, h1, r0, r1) in enumerate(spans):
        d = object.__new__(ValueDist)  # as ValueDist builds it, less the derivation
        d.__dict__.update(support=values[j, :m], probs=masses[j, :m], _below=below[j, : m + 1],
                          _above=above[j, : m + 1], _hull=hull[h0:h1], _slopes=slopes[j, :m], _runs=runs[r0:r1])
        dists.append(d)
    return dists


def assert_built_as_value_dist(d, support, probs):
    """Every field of d equals ValueDist(support, probs)'s in dtype, shape and bytes, and is read-only."""
    want = ValueDist(support, probs)
    for name in FIELDS:
        got, kept = getattr(d, name), getattr(want, name)
        assert (got.dtype, got.shape) == (kept.dtype, kept.shape), name
        assert got.tobytes() == kept.tobytes(), name
        assert not got.flags.writeable, name


class TestBlockFill:
    """The block fill derives a block of rows' priors at once, each field as ValueDist derives it, bit for bit."""

    @given(st.lists(fill_rows(), min_size=1, max_size=12))
    @example([((0.2, 0.5, 0.9), (0.1, 0.2, 0.7))] * 2)  # tails sum top down to 0.9999999999999999
    @settings(max_examples=300, deadline=None)
    def test_every_field_is_value_dists(self, rows):
        got = fill(rows)
        assert len(got) == len(rows)
        for d, (support, probs) in zip(got, rows):
            assert_built_as_value_dist(d, support, probs)
            assert d.support.base is not None  # a view of the block's arrays, not a ValueDist of its own
            assert tuple(map(tuple, d._hull.tolist())) == oracles.iron(oracles.revenue_curve(d))

    def test_rows_of_each_kind(self):
        rows = [*IRONED_ROWS, equal_revenue_row(4, 0.5), equal_revenue_row(6, 1.0), ((0.25,), (1.0,))]
        priors = fill(rows)
        assert all(ironing_intervals(d) for d in priors[:3])
        assert sorted({len(s) for s, _ in rows}) == [1, 4, 5, 6]  # one block of mixed widths
        for d, (support, probs) in zip(priors, rows):
            assert_built_as_value_dist(d, support, probs)

    @pytest.mark.parametrize("m, scale", [(3, 1.0), (4, 0.5), (6, 0.125)])
    def test_hulls_keep_no_point_on_a_chord(self, m, scale):
        # every revenue point of an equal-revenue row but the origin lies on one level line, so the
        # hull keeps only the origin, the top atom's point and the point at quantile 1
        d = fill([equal_revenue_row(m, scale)] * 2)[1]
        level = scale * 2.0 ** (1 - m)
        assert d._hull.tolist() == [[0.0, 0.0], [2.0 ** (1 - m), level], [1.0, level]]
        assert d._slopes.tolist() == [0.0] * (m - 1) + [scale] and d._runs.tolist() == [0, m - 1]

    def test_no_rows_give_no_priors(self):
        assert fill([]) == []

    def test_a_block_with_a_long_row_is_filled(self):
        rows = [grid_atoms(_GATE + 1), ((0.5,), (1.0,)), grid_atoms(_GATE)]
        for d, (support, probs) in zip(fill(rows), rows):
            assert_built_as_value_dist(d, support, probs)
            assert d.support.base is not None

    @given(st.lists(st.one_of(fill_rows(), wide_rows()), max_size=6), st.sampled_from(BAD_ROWS), st.data())
    @settings(max_examples=150, deadline=None)
    def test_declines_a_block_exactly_when_a_row_is_refused(self, rows, bad, data):
        # so a block the fill declines has a row that _each refuses, and _runs builds no prior to fall back on
        if data.draw(st.booleans(), label="with a bad row"):
            rows.insert(data.draw(st.integers(0, len(rows)), label="bad row"), bad)
        def refused(row):
            try:
                ValueDist(*row)
            except ValueError:
                return True
            return False

        assert (_derive(*laid(rows)) is None) == any(map(refused, rows))

    @given(st.lists(fill_rows(), max_size=6), st.sampled_from(BAD_ROWS), st.sampled_from(BAD_ROWS), st.data())
    @settings(max_examples=150, deadline=None)
    def test_the_first_bad_row_is_refused_by_name(self, rows, bad, later, data):
        j = data.draw(st.integers(0, len(rows)), label="bad row")
        rows = rows[:j] + [bad] + rows[j:] + [later]
        with pytest.raises(ValueError) as refused:
            ValueDist(*bad)
        with pytest.raises(ValueError) as got:
            fill(rows)
        assert str(got.value) == f"row {j}: {refused.value}"


def passes(support, probs):
    """The drop count of each thinning pass over one row's revenue curve, to the pass that drops nothing."""
    d = ValueDist(support, probs)
    points, drops = _curve(d.support, d._above), []
    while not drops or drops[-1]:
        step, span = points[:, 1:-1] - points[:, :-2], points[:, 2:] - points[:, :-2]
        low = step[0] * span[1] - step[1] * span[0] >= 0.0
        drops.append(int(low.sum()))
        points = points[:, np.concatenate(([True], ~low, [True]))]
    return drops


class TestFlatHull:
    """The block fill thins every row's revenue curve at once, and each row's hull, slopes and runs are
    ValueDist's, bit for bit, whichever way the thinning ends."""

    def test_the_rows_drop_as_named(self):
        assert all(passes(*row) == [1, 1, 1, 1, 0] for row in ONE_DROP_ROWS)
        assert all(passes(*concave_row(m)) == [0] for m in range(2, 9))
        assert all(passes(*collinear_row(m, 0.5)) == [m - 2, 0] for m in range(3, 7))
        assert passes(*cascade_row()) == [1] * 10 + [0]

    @staticmethod
    def assert_run_starts_are_value_dists(rows):
        slopes, lows, runs = _runs(*laid(rows))
        want = [ValueDist(*row) for row in rows]
        assert runs.tolist() == [len(d._runs) for d in want]
        assert slopes.tobytes() == np.concatenate([np.empty(0)] + [d._slopes[d._runs] for d in want]).tobytes()
        assert lows.tobytes() == np.concatenate([np.empty(0)] + [d.support[d._runs] for d in want]).tobytes()

    @given(st.lists(fill_rows(), min_size=1, max_size=16))
    @settings(max_examples=300, deadline=None)
    def test_run_starts_are_value_dists(self, rows):
        self.assert_run_starts_are_value_dists(rows)

    @pytest.mark.parametrize(
        "rows, chains",
        [
            ([concave_row(m) for m in range(2, 9)] * 3, 0),  # the first pass drops nothing
            ([collinear_row(m, 1.0) for m in range(3, 7)] * 3, 0),  # the second pass drops nothing
            (ONE_DROP_ROWS * 4, 0),  # under a quarter of the points drop at each of four passes, then none
            (ONE_DROP_ROWS + [concave_row(8)] * 12, 0),
            ([*ONE_DROP_ROWS, *IRONED_ROWS, equal_revenue_row(5, 0.5), ((0.5,), (1.0,))] * 2, 0),
            ([cascade_row(), *ONE_DROP_ROWS, concave_row(8)], 1),  # past 8 passes the chain finishes every row
            ([cascade_row()] * 2 + [((0.5,), (1.0,))], 1),
        ],
        ids=["concave", "collinear", "one-drop", "one-drop-among-concave", "mixed", "cascade", "cascades"],
    )
    def test_every_row_as_value_dist_whichever_way_thinning_ends(self, rows, chains, monkeypatch):
        calls = []

        def envelope(points):
            calls.append(None)
            return chain_sweep(points)

        chain_sweep = dist_module._envelope
        monkeypatch.setattr("myersonlab.dist._envelope", envelope)
        priors = fill(rows)
        assert len(calls) == chains  # one chain sweep for the whole block, or none
        for d, (support, probs) in zip(priors, rows):
            assert_built_as_value_dist(d, support, probs)

    def test_no_rows_and_long_rows_give_their_priors_run_starts(self):
        self.assert_run_starts_are_value_dists([])
        self.assert_run_starts_are_value_dists([grid_atoms(_GATE + 1), ((0.5,), (1.0,)), ONE_DROP_ROWS[0]])

    @given(st.lists(wide_rows(), min_size=1, max_size=3),
           st.lists(st.one_of(fill_rows(), st.just(cascade_row())), max_size=8), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_blocks_with_wide_rows_are_value_dists(self, wide, short, random):
        rows = wide + short
        random.shuffle(rows)
        for d, (support, probs) in zip(fill(rows), rows):
            assert_built_as_value_dist(d, support, probs)
        self.assert_run_starts_are_value_dists(rows)

    def test_runs_of_a_block_with_a_long_row_build_no_prior(self, monkeypatch):
        rows = [grid_atoms(_GATE + 1), ((0.5,), (1.0,)), ONE_DROP_ROWS[0], concave_row(300)]
        want = [ValueDist(*row) for row in rows]
        built = []
        monkeypatch.setattr(ValueDist, "__post_init__", lambda d: built.append(d))
        slopes, _, runs = _runs(*laid(rows))
        assert not built
        assert runs.tolist() == [len(d._runs) for d in want]
        assert slopes.tobytes() == np.concatenate([d._slopes[d._runs] for d in want]).tobytes()

    def test_a_block_of_wide_rows_peaks_at_its_arrays(self):
        # 128 concave rows of 128 atoms, 129 hull points each: 2.6 MB at peak, where comparing every tail mass
        # with a padded table of each row's hull quantiles took 4.1 MB
        support, probs, starts = laid([concave_row(128)] * 128)
        _runs(support, probs, starts)
        tracemalloc.start()
        try:
            _runs(support, probs, starts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


def _rank(support, v: float) -> int:
    """Position of v in a sorted support; NaN, which no order places, raises ValueError."""
    if v != v:
        raise ValueError("value is NaN")
    return bisect_right(support, v)


def cdf(d, v: float) -> float:
    """Pr[u <= v] for u drawn from d, read off the partial sums d._below."""
    return float(d._below[_rank(d.support, v)])


def quantile_of_value(d, v: float) -> float:
    """Pr[u > v], the quantile of value v, read off the tail sums d._above."""
    return d._above[_rank(d.support, v)]


def value_of_quantile(d, q: float) -> float:
    """Smallest value whose quantile is at most q: a support value, or 0 at q = 1."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q!r} outside [0, 1]")
    if q >= 1.0:
        return 0.0
    return next(v for v, tail in zip(d.support, d._above[1:]) if tail <= q + MASS_TOL)


class TestCdfAndQuantiles:
    """The partial and tail sums a distribution derives, through the readers above."""

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
        big = ProductDist((point_mass(1.0), point_mass(1.0)))
        small = ProductDist((TWO_POINT, TWO_POINT))
        assert dominates(big, small)
        assert not dominates(small, big)

    def test_reflexive(self):
        p = ProductDist((TWO_POINT,))
        assert dominates(p, p)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            dominates(ProductDist((TWO_POINT,)), ProductDist((TWO_POINT, TWO_POINT)))

    def test_mutual_dominance_means_equality(self):
        a = ProductDist((make_discrete([0.2, 0.8], [0.5, 0.5]),))
        b = ProductDist((make_discrete([0.2, 0.8, 0.8], [0.5, 0.25, 0.25]),))
        assert dominates(a, b) and dominates(b, a)
        assert a[0].support.tolist() == b[0].support.tolist()
        assert a[0].probs.tolist() == pytest.approx(b[0].probs.tolist(), abs=1e-12)

    @given(value_dists(), value_dists())
    @settings(max_examples=80, deadline=None)
    def test_mutual_dominance_property(self, x, y):
        a, b = ProductDist((x,)), ProductDist((y,))
        if dominates(a, b) and dominates(b, a):
            assert x.support.tolist() == y.support.tolist()
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
        p = ProductDist((TWO_POINT, TWO_POINT))
        assert is_close(p, p, 0.01, 2, 1)
        assert is_close_uniform(p, p, 0.01, 2, 1)

    def test_binary_shift_pair_is_close(self):
        # CDF gap eps/(4 n sqrt(k)) fits under the variance-sensitive bound
        d, dt = lipschitz_close_pair(2, 1, 0.01)
        assert is_close(d, dt, 0.01, 2, 1)

    def test_point_masses_far_apart(self):
        a = ProductDist((point_mass(0.0),))
        b = ProductDist((point_mass(1.0),))
        assert not is_close(a, b, 0.1, 1, 1)

    def test_uniform_boundary_gap(self):
        a = ProductDist((point_mass(0.5), point_mass(0.5)))
        b = ProductDist((make_discrete([0.0, 0.5], [0.05, 0.95]), point_mass(0.5)))
        # gap 0.05 against bound eps / sqrt(nk) = 0.1 / 2
        assert is_close_uniform(a, b, 0.1, 2, 2)
        assert not is_close_uniform(a, b, 0.09, 2, 2)

    def test_eps_range_errors(self):
        p = ProductDist((TWO_POINT,))
        with pytest.raises(ValueError):
            is_close(p, p, 0.0, 1, 1)
        with pytest.raises(ValueError):
            is_close_uniform(p, p, 1.5, 1, 1)
        for close in (is_close, is_close_uniform):
            for n, k in ((math.nan, 1), (2, math.nan), (0, 1), (-1, 1), (1, 0)):
                with pytest.raises(ValueError, match="at least 1"):
                    close(p, p, 0.1, n, k)
        q = ProductDist((point_mass(0.3),))
        for n, k in ((0, 1), (-1, 1), (math.nan, 1), (1, 0)):
            with pytest.raises(ValueError, match="at least 1"):
                min_closeness_eps(p, q, n, k)

    @given(value_dists(), value_dists(), st.floats(0.01, 1.0), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_close_implies_uniformly_close(self, x, y, eps, n, k):
        a, b = ProductDist((x,)), ProductDist((y,))
        if is_close(a, b, eps, n, k):
            assert is_close_uniform(a, b, eps, n, k)

    @given(value_dists(), value_dists(), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_min_closeness_eps_is_tight(self, x, y, n, k):
        a, b = ProductDist((x,)), ProductDist((y,))
        eps = min_closeness_eps(a, b, n, k)
        if 0.0 < eps <= 1.0:
            assert is_close(a, b, min(1.0, eps * (1 + 1e-9) + 1e-12), n, k)
        if 0.005 < eps and eps * 0.9 <= 1.0:
            assert not is_close(a, b, eps * 0.9, n, k)
        eps_u = oracles.min_uniform_closeness_eps(a, b, n, k)
        if 0.0 < eps_u <= 1.0:
            assert is_close_uniform(a, b, min(1.0, eps_u * (1 + 1e-9) + 1e-12), n, k)


class TestScaleValues:
    def test_point_mass(self):
        assert scale_values(point_mass(1.0), 0.5).support.tolist() == [0.5]

    def test_two_point(self):
        d = scale_values(TWO_POINT, 1 / 3)
        assert d.support.tolist() == pytest.approx([0.1 / 3, 1 / 3], abs=1e-15)
        assert d.probs.tolist() == [0.9, 0.1]

    def test_identity(self):
        assert bits(scale_values(TWO_POINT, 1.0)) == bits(TWO_POINT)

    def test_factor_range(self):
        with pytest.raises(ValueError):
            scale_values(TWO_POINT, 1.5)
        with pytest.raises(ValueError):
            scale_values(TWO_POINT, 0.0)


class TestJson:
    def test_value_dist_round_trip(self):
        obj = TWO_POINT.to_json()
        assert obj == {"support": [0.1, 1.0], "probs": [0.9, 0.1]}
        assert bits(ValueDist.from_json(obj)) == bits(TWO_POINT)

    def test_parsing_normalizes(self):
        d = ValueDist.from_json({"support": [1.0, 0.1], "probs": [0.1, 0.9]})
        assert bits(d) == bits(TWO_POINT)

    def test_product_round_trip(self):
        p = ProductDist((TWO_POINT, point_mass(0.5)))
        assert p.to_json() == [TWO_POINT.to_json(), {"support": [0.5], "probs": [1.0]}]
        q = ProductDist.from_json(p.to_json())
        assert type(q) is ProductDist and list(map(bits, q)) == list(map(bits, p))

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
            (ValueDist.from_json, lambda x, y: bits(x) == bits(y)),
            (ProductDist.from_json, lambda x, y: list(map(bits, x)) == list(map(bits, y))),
            (feasible_from_json, lambda x, y: np.array_equal(x.vertices, y.vertices)),
        ):
            try:
                parsed = parse(obj)
            except ValueError:
                continue
            assert same(parse(parsed.to_json()), parsed)


class TestProductDist:
    def test_built_from_a_generator(self):
        p = ProductDist(point_mass(v) for v in (0.25, 0.5))
        assert p.n == len(p) == 2 and bits(p[1]) == bits(point_mass(0.5))

    @pytest.mark.parametrize(
        "build", [lambda: ProductDist(()), lambda: ProductDist.from_json([])], ids=["tuple", "json"]
    )
    def test_needs_a_coordinate(self, build):
        with pytest.raises(ValueError, match="a product distribution needs at least one coordinate"):
            build()

    def test_slices_are_the_coordinates(self):
        half, one = point_mass(0.5), point_mass(1.0)
        p = ProductDist((TWO_POINT, half, one))
        assert p[1:] == (half, one)
        assert list(p) == [TWO_POINT, half, one]

    def test_priors_compare_by_identity(self):
        a = ProductDist((TWO_POINT, point_mass(0.5)))
        b = ProductDist.from_json(a.to_json())
        assert list(map(bits, a)) == list(map(bits, b))
        assert a != b and a == ProductDist(tuple(a)) and a[1] != point_mass(0.5)
        assert len({a: 0, b: 1, ProductDist(tuple(a)): 2}) == 2


class TestHelpers:
    def test_uniform_grid(self):
        d = uniform_grid([0.2, 0.4, 0.6])
        assert d.probs.tolist() == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_discretized_atom_mixture(self):
        d = discretize_uniform_with_atom(0.5, 0.2, 0.01)
        assert sum(d.probs) == pytest.approx(1.0, abs=1e-12)
        assert 0.5 in d.support
        idx = d.support.tolist().index(0.5)
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
        eps_uniform = oracles.min_uniform_closeness_eps(a, b, n, k)
        assert eps_close == oracles.min_closeness_eps(a, b, n, k)
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
            self.assert_agrees(ProductDist((x,)), ProductDist((y,)), 2, 1)
            assert min_closeness_eps(ProductDist((x,)), ProductDist((y,)), 2, 1) == 0.0

    def test_learned_prior(self):
        prior = ProductDist(tuple(discretize_uniform_with_atom(v, 0.1, 0.01) for v in (0.55, 0.8)))
        for seed in range(3):
            learned = dominated_empirical(draw_samples(prior, 400, seed), 0.1)
            self.assert_agrees(prior, learned, 2, 1)
            self.assert_agrees(learned, prior, 2, 1)
