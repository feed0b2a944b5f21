"""Allocation rule, threshold payments, and revenue evaluation."""

import re
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations
from itertools import product as iproduct
from math import nan, prod, sqrt

import numpy as np
import pytest

import myersonlab.auction
import oracles
from myersonlab.auction import (
    _BLOCK,
    _CAP,
    Auction,
    CrossCheckError,
    _allocations,
    _auctions,
    EnumerationCapError,
    _expectation,
    _expected_revenues,
    _winners,
    allocate,
    expected_revenue,
    expected_virtual_welfare,
    myerson,
    opt_revenue,
    payments,
    Tables,
)
from myersonlab.dist import (
    ProductDist,
    discretize_uniform_with_atom,
    make_discrete,
    point_mass,
)
from myersonlab.feasible import (
    _exchange_violation,
    all_or_nothing,
    from_independent_sets,
    from_vertices,
    minimum_non_matroid,
    uniform_matroid,
)
from myersonlab.lab import embed_counterexample, lipschitz_pair, nonmonotone_gadget
from myersonlab.learn import dominated_empirical, draw_samples

from fuzz import dominated_pair, random_feasible, random_product, random_value_dist, uniform_grid

EPS = 0.1
MINNON_SETS = [(), (0,), (1,), (2,), (1, 2)]
GADGET_PRIOR, GADGET_BIG, GADGET_FS = nonmonotone_gadget(EPS)


def expected_revenue_mc(a, eval_dist, trials, seed):
    """Seeded Monte Carlo estimate of expected revenue, (mean, stderr), priced row by row."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    samples = draw_samples(eval_dist, trials, seed).values
    revs = np.array([payments(a, row) for row in samples]).sum(axis=1)
    stderr = 0.0 if trials == 1 else float(revs.std(ddof=1) / sqrt(trials))
    return float(revs.mean()), stderr


@pytest.fixture(scope="module")
def gadget_auction():
    return myerson(GADGET_PRIOR, GADGET_FS)


class TestGadgetCaseTable:
    """The design-prior auction's behavior on every profile of the counterexample."""

    @pytest.mark.parametrize(
        "profile,alloc,pays",
        [
            ((0.5, 1.0, 1.0), (0.0, 1.0, 1.0), (0.0, EPS, EPS)),
            ((0.5, 1.0, EPS), (0.0, 1.0, 1.0), (0.0, 1.0, EPS)),
            ((0.5, EPS, 1.0), (0.0, 1.0, 1.0), (0.0, EPS, 1.0)),
            ((0.5, EPS, EPS), (1.0, 0.0, 0.0), (0.5, 0.0, 0.0)),
        ],
    )
    def test_allocation_and_payments(self, gadget_auction, profile, alloc, pays):
        assert allocate(gadget_auction, profile) == alloc
        assert payments(gadget_auction, profile) == pytest.approx(pays, abs=1e-12)

    def test_profile_revenues(self, gadget_auction):
        assert sum(payments(gadget_auction, (0.5, 1.0, 1.0))) == pytest.approx(0.2)
        assert sum(payments(gadget_auction, (0.5, 1.0, EPS))) == pytest.approx(1.1)
        assert sum(payments(gadget_auction, (0.5, EPS, EPS))) == pytest.approx(0.5)

    def test_sentinel_bidders_never_win_with_alternative(self, gadget_auction):
        # B and C below the prior's lowest atom are excluded outright
        assert allocate(gadget_auction, (0.5, 0.05, 0.05)) == (1.0, 0.0, 0.0)


class TestExpectedRevenue:
    def test_gadget_on_design_prior(self):
        a = myerson(GADGET_PRIOR, GADGET_FS)
        closed_form = (1 - EPS) ** 2 * 0.5 + 2 * EPS * (1 - EPS) * (1 + EPS) + EPS**2 * 2 * EPS
        assert expected_revenue(a, GADGET_PRIOR) == pytest.approx(closed_form, abs=1e-12)
        assert expected_revenue(a, GADGET_PRIOR) == pytest.approx(0.605, abs=1e-12)

    def test_gadget_on_dominating_prior(self):
        a = myerson(GADGET_PRIOR, GADGET_FS)
        assert expected_revenue(a, GADGET_BIG) == pytest.approx(2 * EPS, abs=1e-12)

    def test_single_bidder_point_mass(self):
        d = ProductDist((point_mass(0.5),))
        assert opt_revenue(d, uniform_matroid(1, 1)) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        a = myerson(GADGET_PRIOR, GADGET_FS)
        with pytest.raises(ValueError):
            expected_revenue(a, ProductDist((point_mass(0.5),)))
        with pytest.raises(ValueError):
            myerson(ProductDist((point_mass(0.5),)), GADGET_FS)

    def test_enumeration_cap(self):
        # eight bidders whose eight atoms are eight runs: 8^8 = 16,777,216 cell
        # profiles, past the cap of 1e7, refused before any is enumerated
        prior = ProductDist((uniform_grid([j / 8 for j in range(1, 9)]),) * 8)
        fs = uniform_matroid(8, 1)
        a = myerson(prior, fs)
        for evaluate in (
            lambda: expected_revenue(a, prior),
            lambda: expected_virtual_welfare(a),
            lambda: opt_revenue(prior, fs),
        ):
            with pytest.raises(EnumerationCapError, match="^16777216 cell profiles exceed cap"):
                evaluate()

    def test_point_mass_prior_constant_allocation(self):
        prior = ProductDist((point_mass(0.3), point_mass(0.7)))
        a = myerson(prior, uniform_matroid(2, 1))
        assert allocate(a, (0.3, 0.7)) == (0.0, 1.0)

    def test_all_or_nothing_allocates_only_on_unanimous_top(self):
        d, _ = lipschitz_pair(2, 1, 0.01)
        a = myerson(d, all_or_nothing(2, 1))
        assert allocate(a, (1.0, 1.0)) == (0.5, 0.5)
        assert allocate(a, (1.0, 0.0)) == (0.0, 0.0)
        assert allocate(a, (0.0, 0.0)) == (0.0, 0.0)
        assert payments(a, (1.0, 1.0)) == pytest.approx((0.5, 0.5), abs=1e-12)


class TestOptRevenue:
    def test_all_or_nothing_closed_forms(self):
        d, dtilde = lipschitz_pair(2, 1, 0.01)
        fs = all_or_nothing(2, 1)
        assert opt_revenue(d, fs) == pytest.approx(0.5625, abs=1e-12)
        assert opt_revenue(dtilde, fs) == pytest.approx(0.5643765625, abs=1e-12)

    def test_identity_cross_check_runs(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            d = random_product(rng, n)
            fs = random_feasible(rng, n)
            rev = opt_revenue(d, fs)
            a = myerson(d, fs)
            assert rev == pytest.approx(expected_virtual_welfare(a), abs=1e-9)

    def test_identity_divergence_raises(self, monkeypatch):
        d, _ = lipschitz_pair(2, 1, 0.01)
        monkeypatch.setattr("myersonlab.auction._expectation", lambda a, dist: (0.5, 0.5 + 1e-8))
        with pytest.raises(CrossCheckError, match=r"^revenue 0\.5 and ironed virtual welfare 0\.50000001 diverge$"):
            opt_revenue(d, all_or_nothing(2, 1))


def test_revenue_on_the_design_prior_is_the_exact_optimum():
    # 3 bidders of 1-4 atoms at j/10 with integer weights 1-4, against the
    # expected maximum of ironed virtual welfare computed on Fractions
    rng = np.random.default_rng(20)
    systems = [uniform_matroid(3, 1), uniform_matroid(3, 2), minimum_non_matroid()]
    for _ in range(600):
        atoms = []
        for _ in range(3):
            m = int(rng.integers(1, 5))
            js, ws = np.sort(rng.choice(11, m, replace=False)).tolist(), rng.integers(1, 5, m).tolist()
            atoms.append(([Fraction(j, 10) for j in js], [Fraction(w, sum(ws)) for w in ws]))
        prior = ProductDist(tuple(make_discrete(list(map(float, s)), list(map(float, p))) for s, p in atoms))
        for fs in systems:
            want = oracles.exact_optimum(atoms, [tuple(map(int, v)) for v in fs.vertices.tolist()])
            got = expected_revenue(myerson(prior, fs), prior)
            assert got == pytest.approx(float(want), abs=1e-12, rel=0), (atoms, fs.vertices.tolist())


class TestMonteCarlo:
    def test_matches_exact_within_four_stderr(self, gadget_auction):
        exact = expected_revenue(gadget_auction, GADGET_PRIOR)
        mean, stderr = expected_revenue_mc(gadget_auction, GADGET_PRIOR, 100_000, 42)
        assert abs(mean - exact) <= 4 * stderr

    def test_zero_variance_prior(self):
        prior = ProductDist((point_mass(0.5),))
        a = myerson(prior, uniform_matroid(1, 1))
        mean, stderr = expected_revenue_mc(a, prior, 1000, 1)
        assert stderr == 0.0
        assert mean == pytest.approx(0.5)

    def test_deterministic_given_seed(self, gadget_auction):
        r1 = expected_revenue_mc(gadget_auction, GADGET_PRIOR, 2000, 7)
        r2 = expected_revenue_mc(gadget_auction, GADGET_PRIOR, 2000, 7)
        r3 = expected_revenue_mc(gadget_auction, GADGET_PRIOR, 2000, 8)
        assert r1 == r2
        assert r1 != r3

    def test_trials_validation(self, gadget_auction):
        with pytest.raises(ValueError):
            expected_revenue_mc(gadget_auction, GADGET_PRIOR, 0, 1)


class TestAllocationMonotonicity:
    def test_raising_own_value_never_lowers_allocation(self):
        rng = np.random.default_rng(11)
        sweep = [0.0, 0.05, 0.2, 0.3, 0.45, 0.6, 0.8, 0.95, 1.0]
        for _ in range(40):
            n = int(rng.integers(1, 4))
            d = random_product(rng, n)
            fs = random_feasible(rng, n)
            a = myerson(d, fs)
            supports = [list(dj.support) for dj in d]
            for others in iproduct(*supports):
                for i in range(n):
                    xs = [
                        allocate(a, others[:i] + (v,) + others[i + 1 :])[i]
                        for v in sweep
                    ]
                    assert all(x0 <= x1 + 1e-12 for x0, x1 in zip(xs, xs[1:]))


class TestTruthfulness:
    def test_no_profitable_grid_deviation(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            d = random_product(rng, n)
            fs = random_feasible(rng, n)
            a = myerson(d, fs)
            supports = [list(dj.support) for dj in d]
            for values in iproduct(*supports):
                pays = payments(a, values)
                x = allocate(a, values)
                for i in range(n):
                    if x[i] == 0.0:
                        assert pays[i] == 0.0
                    assert -1e-12 <= pays[i] <= values[i] * x[i] + 1e-12
                    truthful = values[i] * x[i] - pays[i]
                    assert truthful >= -1e-9
                    for bid in supports[i]:
                        dev = values[:i] + (bid,) + values[i + 1 :]
                        util = values[i] * allocate(a, dev)[i] - payments(a, dev)[i]
                        assert util <= truthful + 1e-9


class TestMonotonicityTheorems:
    def test_matroid_strong_monotonicity_sample(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            big, small = dominated_pair(rng, n)
            fs = uniform_matroid(n, int(rng.integers(1, n + 1)))
            a = myerson(small, fs)
            assert expected_revenue(a, big) >= expected_revenue(a, small) - 1e-9

    def test_weak_monotonicity_including_non_downward_closed(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            big, small = dominated_pair(rng, n)
            fs = random_feasible(rng, n)
            assert opt_revenue(big, fs) >= opt_revenue(small, fs) - 1e-9


class TestForcedAllocation:
    def test_all_vertices_touch_sentinel_bidder(self):
        # no zero vector: allocation is forced even below the lowest atom
        fs = from_vertices([[1.0]])
        prior = ProductDist((make_discrete([0.5, 1.0], [0.5, 0.5]),))
        a = myerson(prior, fs)
        assert allocate(a, (0.1,)) == (1.0,)
        # the forced winner pays nothing: it never stops winning
        assert payments(a, (0.5,)) == pytest.approx((0.0,), abs=1e-12)


ATOMS = [j / 8 for j in range(1, 9)]


def random_system(rng, n):
    """A uniform matroid, the minimum non-matroid, all-or-nothing, or fractional vertices."""
    if rng.random() < 0.75:
        return random_feasible(rng, n)
    coords = np.array([0.0, 0.25, 0.5, 1.0])
    verts = []  # none of them zero
    while len(verts) < int(rng.integers(1, 6)):
        v = coords[rng.integers(0, 4, size=n)]
        if v.any():
            verts.append(v.tolist())
    return from_vertices(verts)


def random_prior(rng, n):
    return ProductDist(tuple(random_value_dist(rng, 4, ATOMS) for _ in range(n)))


def run_counts(a):
    """Each bidder's count of cells above 0, read off the auction's prior."""
    return tuple(len(d._runs) for d in a.prior)


def probe_values(d):
    """Values on the support atoms, between them, and below the lowest."""
    s = d.support
    return [0.0, s[0] / 2, *s, *((u + v) / 2 for u, v in zip(s, s[1:]))]


def record_kernel_calls(monkeypatch):
    """Spy on the scorer: the broadcast shape of each call's points, in order.

    A line payment is one scorer call per bidder, over (own cell + 1, 1) points.
    """
    shapes = []
    kernel = myersonlab.auction._winners

    def spy(terms, cells):
        shapes.append(np.broadcast_shapes(*(np.shape(c) for c in cells)))
        return kernel(terms, cells)

    monkeypatch.setattr(myersonlab.auction, "_winners", spy)
    return shapes


def scored_on_grid(shapes, n):
    """One scorer call over an n-axis grid.

    Lines take one (cells, profiles) call per block of a bidder's lines in an
    expectation, and one (own cell + 1, 1) call per bidder in a payment.
    """
    return len(shapes) == 1 and len(shapes[0]) == n


class TestAgainstScalarReference:
    """The array kernel against the one-profile-at-a-time allocator and payment loop."""

    def check_profile(self, a, values):
        assert allocate(a, values) == oracles.allocate(a, values)
        assert payments(a, values) == pytest.approx(oracles.payments(a, values), abs=1e-12)

    def test_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            n = int(rng.integers(1, 5))
            prior = random_prior(rng, n)
            a = myerson(prior, random_system(rng, n))
            probes = [probe_values(d) for d in prior]
            for _ in range(25):
                values = tuple(float(rng.choice(p)) for p in probes)
                self.check_profile(a, values)
            assert expected_virtual_welfare(a) == pytest.approx(
                oracles.expected_virtual_welfare(a, prior), abs=1e-12
            )
            for dist in (prior, random_prior(rng, n)):
                self.check_expectations(a, dist)

    def check_expectations(self, a, dist):
        revenue, welfare = _expectation(a, dist)
        assert revenue == expected_revenue(a, dist)
        assert revenue == pytest.approx(oracles.expected_revenue(a, dist), abs=1e-12)
        assert welfare == pytest.approx(oracles.expected_virtual_welfare(a, dist), abs=1e-12)

    @pytest.mark.parametrize(
        "prior,dist,fs",
        [
            pytest.param(  # atoms below the prior's lowest one fall in cell 0
                ProductDist((make_discrete([0.5, 1.0], [0.5, 0.5]), uniform_grid([0.25, 0.75]))),
                ProductDist((make_discrete([0.125, 0.5, 1.0], [0.25, 0.25, 0.5]),
                             make_discrete([0.0, 0.5], [0.5, 0.5]))),
                uniform_matroid(2, 1),
                id="cell-0-occupied",
            ),
            pytest.param(  # only the first and last of five cells above 0 carry mass
                ProductDist((uniform_grid([0.125, 0.25, 0.5, 0.625, 1.0]),) * 3),
                ProductDist((make_discrete([0.125, 1.0], [0.75, 0.25]),) * 3),
                minimum_non_matroid(),
                id="interior-cells-empty",
            ),
            pytest.param(
                ProductDist((make_discrete([0.25, 0.5, 1.0], [0.5, 0.25, 0.25]),)),
                ProductDist((make_discrete([0.125, 0.375, 1.0], [0.25, 0.25, 0.5]),)),
                uniform_matroid(1, 1),
                id="single-bidder",
            ),
        ],
    )
    def test_line_sweep_edge_distributions(self, monkeypatch, prior, dist, fs):
        monkeypatch.setattr("myersonlab.auction._BLOCK", 8)  # too small for any grid here
        a = myerson(prior, fs)
        for d in (prior, dist):
            self.check_expectations(a, d)

    @pytest.mark.parametrize(
        "prior,dist,fs",
        [
            pytest.param(  # no zero vertex: a point with a bidder in cell 0 falls back to welfare
                ProductDist((make_discrete([0.25, 1.0], [0.5, 0.5]),
                             make_discrete([0.5, 0.75], [0.5, 0.5]))),
                ProductDist((make_discrete([0.125, 0.25, 1.0], [0.25, 0.25, 0.5]),
                             make_discrete([0.25, 0.5, 0.75], [0.5, 0.25, 0.25]))),
                from_vertices([[1.0, 0.5], [0.5, 1.0], [0.25, 0.25]]),
                id="forced-fallback",
            ),
            pytest.param(  # atoms below each prior's lowest one fall in cell 0
                ProductDist((make_discrete([0.5, 1.0], [0.5, 0.5]), uniform_grid([0.25, 0.75]),
                             uniform_grid([0.25, 0.5, 1.0]))),
                ProductDist((make_discrete([0.0, 0.5, 1.0], [0.25, 0.25, 0.5]),
                             make_discrete([0.125, 0.25, 0.75], [0.5, 0.25, 0.25]),
                             uniform_grid([0.0, 0.25, 0.5, 1.0]))),
                uniform_matroid(3, 2),
                id="cell-0-occupied",
            ),
            pytest.param(  # bidder 0's cells 2 and 3 carry no mass
                ProductDist((uniform_grid([0.25, 0.5, 0.75, 1.0]), uniform_grid([0.25, 0.5, 1.0]))),
                ProductDist((make_discrete([0.25, 1.0], [0.5, 0.5]),
                             uniform_grid([0.25, 0.5, 1.0]))),
                uniform_matroid(2, 1),
                id="interior-cells-empty",
            ),
        ],
    )
    def test_grid_edge_distributions(self, monkeypatch, prior, dist, fs):
        shapes = record_kernel_calls(monkeypatch)
        a = myerson(prior, fs)
        on_grid = _expectation(a, dist)
        assert scored_on_grid(shapes, dist.n), shapes
        self.check_expectations(a, dist)
        monkeypatch.setattr("myersonlab.auction._BLOCK", 8)  # too small for the grid
        shapes.clear()
        assert _expectation(myerson(prior, fs), dist) == pytest.approx(on_grid, abs=1e-12)
        assert not scored_on_grid(shapes, dist.n), shapes

    def test_grid_and_lines_agree(self, monkeypatch):
        rng = np.random.default_rng(77)
        shapes = record_kernel_calls(monkeypatch)
        grids = 0
        for _ in range(150):
            n = int(rng.integers(1, 4))
            prior = random_prior(rng, n)
            fs = random_system(rng, n)
            for dist in (prior, random_prior(rng, n)):
                monkeypatch.setattr("myersonlab.auction._BLOCK", 1 << 14)
                shapes.clear()
                first = _expectation(myerson(prior, fs), dist)
                grids += scored_on_grid(shapes, n)
                monkeypatch.setattr("myersonlab.auction._BLOCK", 1)  # no grid fits
                shapes.clear()
                lines = myerson(prior, fs)
                assert _expectation(lines, dist) == pytest.approx(first, abs=1e-12)
                assert not scored_on_grid(shapes, n)
        assert grids >= 200  # most of the 300 evaluations took the grid

    def test_ten_bidder_embed_gadget(self):
        # the minimum non-matroid on bidders 0-2 next to a rank-2 uniform
        # matroid on bidders 3-9; embed pins A = 0, B = 1, C = 2 with
        # bidders 3 and 4 in both sets of the violating pair
        extra = [c for r in range(3) for c in combinations(range(3, 10), r)]
        fs = from_independent_sets(10, [g + u for g in MINNON_SETS for u in extra])
        assert _exchange_violation(fs) == ((1, 2, 3, 4), (0, 3, 4))
        bc = make_discrete([0.1 * 0.1, 0.1], [0.9, 0.1])
        design = (point_mass(0.05), bc, bc, point_mass(1.0), point_mass(1.0))
        outsider = make_discrete([0.0, 0.1 * 0.1 * 0.1], [0.99, 0.01])
        design = ProductDist(design + (outsider,) * 5)
        dominating = ProductDist(design[:1] + (point_mass(0.1),) * 2 + design[3:])
        a = myerson(design, fs)
        assert a._ranks is a._outcomes is None  # 3^10 cells do not fit a block
        report = embed_counterexample(fs)
        assert report.metrics["revenue_on_design_prior"] == expected_revenue(a, design)
        assert report.metrics["revenue_on_dominating"] == expected_revenue(a, dominating)
        for d in (design, dominating):
            self.check_expectations(a, d)

    def test_block_narrower_than_the_widest_line(self, monkeypatch):
        # at this block size each block holds one line, so some blocks hold
        # only a line of bidder 1, whose highest occupied cell lies below bidder 0's
        monkeypatch.setattr("myersonlab.auction._BLOCK", 12)
        prior = ProductDist((uniform_grid([0.2, 0.4, 0.6, 0.8, 1.0]), uniform_grid([0.5, 1.0])))
        a = myerson(prior, uniform_matroid(2, 1))
        self.check_expectations(a, prior)

    def test_every_vertex_touches_a_cell_zero_bidder(self):
        fs = from_vertices([[1.0, 0.5], [0.5, 1.0], [0.25, 0.25]])
        prior = ProductDist((
            make_discrete([0.25, 1.0], [0.5, 0.5]), make_discrete([0.5, 0.75], [0.5, 0.5])
        ))
        a = myerson(prior, fs)
        for values in iproduct([0.0, 0.125, 0.25, 1.0], [0.0, 0.25, 0.5, 0.75]):
            self.check_profile(a, values)

    def test_loser_whose_allocation_falls_from_cell_zero_pays_nothing(self):
        # bidder 1 sits below its lowest atom and both vertices allocate to
        # it; bidder 0 wins in cell 0 (welfare 0 ties, first in tie order)
        # and loses in cell 1, where its virtual value is -0.75
        fs = from_vertices([[1.0, 1.0], [0.0, 1.0]])
        prior = ProductDist((
            make_discrete([0.125, 1.0], [0.5, 0.5]), make_discrete([0.5, 1.0], [0.5, 0.5])
        ))
        a = myerson(prior, fs)
        assert allocate(a, (0.05, 0.25)) == (1.0, 1.0)
        assert allocate(a, (0.125, 0.25)) == (0.0, 1.0)
        assert payments(a, (0.125, 0.25)) == (0.0, 0.0)
        self.check_profile(a, (0.125, 0.25))


def test_three_bidder_ten_atom_evaluation_scores_one_grid(monkeypatch):
    # cells 0-10 of each bidder: 11^3 = 1,331 points, scored once by myerson,
    # where lines over each bidder's cells for every profile of the others take 3,300
    prior = ProductDist((uniform_grid(np.linspace(0.1, 1.0, 10)),) * 3)
    shapes = record_kernel_calls(monkeypatch)
    expected_revenue(myerson(prior, uniform_matroid(3, 2)), prior)
    assert shapes == [(11, 11, 11)]
    assert sum(prod(s) for s in shapes) <= 1331


# ten atoms in three ironed runs: virtual values -0.61 on atoms 1-4, 0.16 on atoms 5-9, 1 on the top
IRONED_TEN = make_discrete(
    np.linspace(0.1, 1.0, 10), [0.3, 0.02, 0.02, 0.02, 0.3, 0.02, 0.02, 0.02, 0.02, 0.26]
)
# two atoms an ulp apart whose virtual values, 0.5 -+ 2^-53, straddle a rival's 0.5
NEAR_TIE = make_discrete([0.5, 0.5 + 2.0**-53], [0.5, 0.5])


def ironed_dist(rng, m):
    """m atoms on a 1/1000 grid with spiky masses, so most of them lie in long ironed runs."""
    support = np.sort(rng.choice(np.arange(1, 1000), size=m, replace=False)) / 1000
    return make_discrete(support, rng.dirichlet(np.full(m, 0.3)))


def learned_prior(seed):
    """A dominated empirical prior of about 740 atoms per bidder, learned as in dense-learn."""
    prior = ProductDist(tuple(discretize_uniform_with_atom(v, 0.1, 0.001) for v in (0.55, 0.8)))
    return dominated_empirical(draw_samples(prior, 1726, seed), 0.1)


class TestRunsAgainstPerAtomCells:
    """One cell per ironed run against the per-atom auction of oracles.per_atom_auction.

    Inside a run every kernel input is the same, so allocations and
    payments must be bit-equal; expectations merge masses per run, so only
    their summation order moves.
    """

    def check(self, prior, fs, dists, rng, sweep=None):
        """Sweep each bidder's bid over its probes, or over sweep of them, the others at random."""
        a, ref = myerson(prior, fs), oracles.per_atom_auction(prior, fs)
        probes = [probe_values(d) for d in prior]  # atoms, run boundaries, between atoms, cell 0
        for i, own in enumerate(probes):
            for v in own if sweep is None else rng.choice(own, sweep, replace=False):
                values = [float(rng.choice(p)) for p in probes]
                values[i] = v
                assert allocate(a, values) == allocate(ref, values), values
                assert payments(a, values) == payments(ref, values), values
        for dist in dists:
            assert _expectation(a, dist) == pytest.approx(
                _expectation(ref, dist), abs=1e-12, rel=0
            )
            mc = expected_revenue_mc(a, dist, 300, 7)
            assert mc == pytest.approx(expected_revenue_mc(ref, dist, 300, 7), abs=1e-12, rel=0)
        return a

    def test_random_ironed_priors(self):
        rng = np.random.default_rng(10)
        atoms = runs = 0
        for _ in range(60):
            n = int(rng.integers(1, 4))
            prior = ProductDist(tuple(ironed_dist(rng, int(rng.integers(3, 13))) for _ in range(n)))
            below = ProductDist(tuple(ironed_dist(rng, 6) for _ in range(n)))  # cell 0 occupied
            a = self.check(prior, random_system(rng, n), (prior, below), rng)
            atoms, runs = atoms + sum(len(d.support) for d in prior), runs + sum(run_counts(a))
        assert runs < 0.7 * atoms  # the priors are mostly ironed

    @pytest.mark.parametrize(
        "prior,fs",
        [
            pytest.param(GADGET_PRIOR, GADGET_FS, id="gadget-cell-1-virtual-value-0"),
            pytest.param(ProductDist((IRONED_TEN,) * 3), uniform_matroid(3, 2), id="ironed-ten"),
            pytest.param(  # no zero vertex, fractional vertices
                ProductDist((IRONED_TEN, make_discrete([0.2, 0.3, 0.9], [0.6, 0.1, 0.3]))),
                from_vertices([[1.0, 0.5], [0.5, 1.0], [0.25, 0.25]]),
                id="no-zero-vertex",
            ),
            pytest.param(ProductDist((NEAR_TIE, point_mass(0.5))), uniform_matroid(2, 1),
                         id="near-tie"),
        ],
    )
    def test_edge_priors(self, prior, fs):
        rng = np.random.default_rng(3)
        # a quarter of each bidder's mass moved to 0, in cell 0
        below = [
            make_discrete((0.0, *d.support), (0.25, *np.multiply(0.75, d.probs))) for d in prior
        ]
        self.check(prior, fs, (prior, ProductDist(tuple(below))), rng)

    def test_learned_prior(self):
        prior = learned_prior(5)
        self.check(prior, uniform_matroid(2, 1), (), np.random.default_rng(4), sweep=200)

    def test_gadget_cell_1_is_not_cell_0(self, gadget_auction):
        # B's and C's lowest atom has virtual value exactly 0.0, as cell 0 has,
        # but only a bidder below it is kept from winning: at the vertex giving
        # B 1.0 its cell-1 term is that value and its cell-0 term is -inf
        b = gadget_auction.prior[1]
        assert b._slopes[b._runs[:1]].tolist() == [0.0]
        serves_b = gadget_auction.feasible.vertices[:, 1].argmax()
        assert gadget_auction._terms[1, :2, serves_b].tolist() == [-np.inf, 0.0]
        assert allocate(gadget_auction, (0.5, 0.1, 0.1)) == (1.0, 0.0, 0.0)
        assert allocate(gadget_auction, (0.5, 1.0, 0.1)) == (0.0, 1.0, 1.0)
        assert allocate(gadget_auction, (0.5, 1.0, 0.05)) == (0.0, 1.0, 0.0)

    def test_virtual_values_apart_by_an_ulp_are_apart(self):
        a = myerson(ProductDist((NEAR_TIE, point_mass(0.5))), uniform_matroid(2, 1))
        assert run_counts(a) == (2, 1)
        assert allocate(a, (0.5, 0.5)) == (0.0, 1.0)
        assert allocate(a, (0.5 + 2.0**-53, 0.5)) == (1.0, 0.0)
        assert payments(a, (0.5 + 2.0**-53, 0.5)) == (0.5 + 2.0**-53, 0.0)


def test_ironed_three_bidder_ten_atom_evaluation_scores_a_grid_of_runs(monkeypatch):
    # three runs and cell 0 per bidder: 4^3 = 64 points, where atoms would take 11^3
    prior = ProductDist((IRONED_TEN,) * 3)
    shapes = record_kernel_calls(monkeypatch)
    a = myerson(prior, uniform_matroid(3, 2))
    assert run_counts(a) == (3, 3, 3)
    revenue = expected_revenue(a, prior)
    assert shapes == [(4, 4, 4)]
    assert revenue == pytest.approx(oracles.expected_revenue(a, prior), abs=1e-12)


def test_payments_on_a_learned_prior_score_runs_not_atoms(monkeypatch):
    prior = learned_prior(5)
    monkeypatch.setattr("myersonlab.auction._BLOCK", 1 << 12)  # lines, not tables
    a = myerson(prior, uniform_matroid(2, 1))
    assert a._outcomes is None
    runs = max(run_counts(a))
    assert min(len(d.support) for d in prior) > 700 and runs < 100
    shapes = record_kernel_calls(monkeypatch)
    for bids in np.random.default_rng(6).random((20, 2)):
        shapes.clear()
        payments(a, tuple(bids))
        assert sum(prod(s) for s in shapes) <= 2 * (runs + 1), shapes


class TestOutcomeTables:
    """Auctions whose cell grid fits a block read their outcomes off tables built by myerson."""

    def test_tables_and_lines_agree(self, monkeypatch):
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            prior = ProductDist(tuple(ironed_dist(rng, int(rng.integers(3, 11))) for _ in range(n)))
            fs = random_system(rng, n)
            a = myerson(prior, fs)
            monkeypatch.setattr("myersonlab.auction._BLOCK", 1)  # no grid fits
            lines = myerson(prior, fs)
            monkeypatch.setattr("myersonlab.auction._BLOCK", _BLOCK)
            assert a._outcomes is not None and lines._outcomes is None
            probes = [probe_values(d) for d in prior]
            for _ in range(30):
                values = [float(rng.choice(p)) for p in probes]
                assert allocate(a, values) == allocate(lines, values), values
                assert payments(a, values) == payments(lines, values), values
            below = ProductDist(tuple(ironed_dist(rng, 6) for _ in range(n)))  # cell 0 occupied
            for dist in (prior, below):
                assert _expectation(a, dist) == pytest.approx(
                    _expectation(lines, dist), abs=1e-12, rel=0
                )
                mc = expected_revenue_mc(a, dist, 300, 5)
                assert mc == expected_revenue_mc(lines, dist, 300, 5)

    def test_grid_scorer_and_kernel_agree_bit_for_bit(self, monkeypatch):
        # myerson scores its grid in one _winners call, here _winners scores the
        # same profiles as a flat list of points; the welfare column sums
        # x_i * phi_i[c_i] from +0.0, so the -0.0 terms of losers with
        # negative phi leave no -0.0 behind.
        # A twin without tables runs lines at a value in each cell profile.
        rng = np.random.default_rng(23)
        cases = [(random_prior(rng, n), random_system(rng, n)) for n in rng.integers(1, 4, size=80)]
        cases.append((  # no zero vertex: a bidder in cell 0 forces the plain-welfare fallback
            ProductDist((make_discrete([0.25, 1.0], [0.5, 0.5]), make_discrete([0.5, 0.75], [0.5, 0.5]))),
            from_vertices([[1.0, 0.5], [0.5, 1.0], [0.25, 0.25]]),
        ))
        negative_zeros = 0
        for prior, fs in cases:
            a = myerson(prior, fs)
            monkeypatch.setattr("myersonlab.auction._BLOCK", 1)  # no grid fits
            lines = myerson(prior, fs)
            monkeypatch.setattr("myersonlab.auction._BLOCK", _BLOCK)
            assert a._ranks is not None and lines._ranks is None
            cells = np.indices(a._ranks.shape).reshape(prior.n, -1)
            ranks = a._ranks.reshape(-1)
            rows, kernel = _winners(a._terms, list(cells))
            assert rows.tolist() == ranks.tolist()
            welfare = a._outcomes[..., prior.n].reshape(-1).tolist()
            assert [w.hex() for w in kernel.tolist()] == [w.hex() for w in welfare]
            phis = [[0.0, *d._slopes[d._runs].tolist()] for d in prior]  # cell 0 counts 0
            # cell 0 below the lowest atom, cell c > 0 at its run's first atom
            bids = [(th[0] - 1.0, *th[:m]) for th, m in zip(a._thresholds.tolist(), run_counts(a))]
            for profile, rank, w in zip(cells.T.tolist(), ranks.tolist(), welfare):
                values = [b[c] for b, c in zip(bids, profile)]
                assert allocate(lines, values) == tuple(fs.vertices[rank].tolist()), profile
                pays = a._outcomes[tuple(profile)][:-1].tolist()
                assert [p.hex() for p in payments(lines, values)] == [p.hex() for p in pays]
                terms = [x * phi[c] for x, phi, c in zip(fs.vertices[rank].tolist(), phis, profile)]
                total = 0.0
                for t in terms:
                    total += t
                assert w.hex() == total.hex(), (profile, terms)
                negative_zeros += all(t.hex() == (-0.0).hex() for t in terms)
        assert negative_zeros > 0  # a sum started from the first term would keep -0.0 there

    def test_contraction_matches_the_padded_mass_oracle_bit_for_bit(self):
        # a table's grid fits one block, below the cap, so its expectation skips the cap
        assert _BLOCK < _CAP

        def straddling(rng, d):
            """Some of d's atoms, with one below its lowest (cell 0) and one above its top."""
            s = d.support.tolist()
            values = [s[0] / 2, *rng.choice(s, size=int(rng.integers(0, len(s) + 1))), (s[-1] + 1) / 2]
            weights = rng.integers(1, 10, size=len(values)).astype(float)
            return make_discrete(values, weights / weights.sum())

        rng = np.random.default_rng(29)
        cases = []
        while len(cases) < 200:
            n = int(rng.integers(1, 5))
            if rng.random() < 0.5:
                prior = random_prior(rng, n)
            else:
                prior = ProductDist(tuple(ironed_dist(rng, int(rng.integers(2, 9))) for _ in range(n)))
            a = myerson(prior, random_system(rng, n))
            if a._outcomes is not None:
                cases.append(a)
        at_block = [  # (cells per bidder, system): the product of cells times vertices + n is _BLOCK
            ((8192,), from_vertices([[1.0]])),
            ((64, 64), all_or_nothing(2, 1)),
            ((16, 16, 8), minimum_non_matroid()),
            ((8, 8, 8, 4), from_vertices(np.eye(4))),
        ]
        for cells, fs in at_block:
            prior = ProductDist(tuple(uniform_grid(np.arange(1, c) / c) for c in cells))
            a = myerson(prior, fs)
            assert prod(r + 1 for r in run_counts(a)) * (len(fs.vertices) + fs.n) == _BLOCK
            cases.append(a)
        for a in cases:
            assert a._outcomes is not None
            for dist in (a.prior, ProductDist(tuple(straddling(rng, d) for d in a.prior))):
                got, want = _expectation(a, dist), oracles.table_expectation(a, dist)
                assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_tables_are_read_only(self):
        a = myerson(ProductDist((IRONED_TEN,) * 3), uniform_matroid(3, 2))
        assert a._ranks.shape == (4, 4, 4) and a._outcomes.shape == (4, 4, 4, 4)
        for table in (a._ranks, a._outcomes):
            with pytest.raises(ValueError):
                table[0, 0, 0] = 1

    def test_three_bidder_ten_atom_priors_hold_tables(self):
        # ten runs per bidder, the most ten atoms can form, fit a block as 11^3
        # cells; the 10-bidder embed gadget and the 15-bidder unanimity auction,
        # pinned where they are tested, hold no tables
        uniform = ProductDist((uniform_grid(np.linspace(0.1, 1.0, 10)),) * 3)
        for fs in (uniform_matroid(3, 1), uniform_matroid(3, 2), minimum_non_matroid(),
                   all_or_nothing(3, 2)):
            a = myerson(uniform, fs)
            assert run_counts(a) == (10, 10, 10) and a._outcomes is not None

    def test_grid_is_the_product_of_each_bidders_cells(self, monkeypatch):
        # 61 x 2 cells fit a block, though a cube over the most cells, 61^2, would not
        prior = ProductDist((uniform_grid(np.linspace(1 / 60, 1.0, 60)), point_mass(0.5)))
        fs = uniform_matroid(2, 1)
        a = myerson(prior, fs)
        assert run_counts(a) == (60, 1) and 61**2 * (len(fs.vertices) + 2) > _BLOCK
        assert a._outcomes.shape == (61, 2, 3)
        monkeypatch.setattr("myersonlab.auction._BLOCK", 1)  # no grid fits
        lines = myerson(prior, fs)
        for values in iproduct(*map(probe_values, prior)):
            assert allocate(a, values) == allocate(lines, values), values
            assert payments(a, values) == payments(lines, values), values


def block_sizes(auctions):
    """The sizes of the runs of consecutive auctions that share one block's arrays, in order."""
    sizes, last = [], None
    for a in auctions:
        if a._terms.base is not last:
            sizes.append(0)
        sizes[-1] += 1
        last = a._terms.base
    return sizes


def trials_of(block):
    """How many trials a block of _auctions holds: an Auction runs lines for one trial."""
    return 1 if isinstance(block, Auction) else len(block.cells)


def trial_auctions(blocks, priors, fs):
    """Each trial's auction of the blocks of _auctions, in trial order: a block's Auction itself, and for Tables an
    Auction of views of trial t's slices (its thresholds up to its most cells, its outcome tables at its own cells),
    with no term tables, which a block with tables does not keep."""
    t = 0
    for block in blocks:
        if isinstance(block, Auction):
            yield block
        else:
            for j, cells in enumerate(block.cells.tolist()):
                own = tuple(map(slice, cells)) + (j,)
                yield Auction(priors[t + j], fs, block.thresholds[:, : max(cells), j], None,
                              block.ranks[own], block.outcomes[own])
        t += trials_of(block)


class TestAuctionBlocks:
    """_auctions scores runs of trials in blocks, and each trial's auction equals myerson's, bit for bit."""

    @pytest.mark.parametrize("fs", [uniform_matroid(2, 1), minimum_non_matroid()], ids=["matroid", "non-matroid"])
    def test_mixed_priors_match_myerson(self, fs, monkeypatch):
        # at a block of 120 cells some random priors fit several together, some only alone, and some
        # need lines; long needs lines, and wide fits alone but not beside tall, so it is a block of one
        monkeypatch.setattr("myersonlab.auction._BLOCK", 120 * (len(fs.vertices) + fs.n))
        rng = np.random.default_rng(7)
        ten, one = uniform_grid(np.linspace(0.1, 1.0, 10)), point_mass(0.5)
        long, wide = ProductDist((ten,) * fs.n), ProductDist((ten,) + (one,) * (fs.n - 1))
        tall = ProductDist((one, ten) + (one,) * (fs.n - 2))
        priors = [random_prior(rng, fs.n) for _ in range(30)]
        priors[12:12] = [long, wide, tall]
        blocks = list(_auctions(oracles.block_of(priors, fs.n), fs))
        sizes = [trials_of(block) for block in blocks]
        assert sum(sizes) == len(priors)
        assert max(sizes) > 2 and sizes.count(1) > 2
        first = np.cumsum([0] + sizes)  # each block's first trial
        assert 12 in first and 13 in first and 14 in first  # long and wide are blocks of one
        assert isinstance(blocks[list(first).index(12)], Auction)  # long runs lines
        assert isinstance(blocks[list(first).index(13)], Tables)  # wide fits alone
        auctions = list(trial_auctions(blocks, priors, fs))
        assert len(auctions) == len(priors)
        for prior, a in zip(priors, auctions):
            b = myerson(prior, fs)
            assert a.prior is prior and a.feasible is fs
            for name in ("_thresholds", "_terms", "_ranks", "_outcomes"):
                got, want = getattr(a, name), getattr(b, name)
                if want is None or (got is None and name == "_terms"):  # a block with tables keeps no terms
                    assert got is None, name
                    continue
                assert got.shape == want.shape and got.dtype == want.dtype, name
                assert got.tobytes() == want.tobytes(), name
                assert not got.flags.writeable, name
            assert expected_revenue(a, prior).hex() == expected_revenue(b, prior).hex()
            assert expected_virtual_welfare(a).hex() == expected_virtual_welfare(b).hex()
            probes = [probe_values(d) for d in prior]
            for _ in range(20):
                values = [float(rng.choice(p)) for p in probes]
                assert allocate(a, values) == allocate(b, values), values
                assert payments(a, values) == payments(b, values), values

    def test_myerson_holds_contiguous_views_of_a_block_of_one(self):
        prior, fs = random_prior(np.random.default_rng(3), 3), uniform_matroid(3, 2)
        a = myerson(prior, fs)
        for arr in (a._thresholds, a._terms, a._ranks, a._outcomes):
            assert arr.base is not None and arr.flags.c_contiguous and not arr.flags.writeable
        assert block_sizes([a, myerson(prior, fs)]) == [1, 1]

    def test_a_block_holds_at_most_the_tables_that_fit(self):
        # 11 x 11 cells of 3 vertices + 2 bidders: 27 priors take 16,335 numbers, 28 would take 16,940
        prior, fs = ProductDist((uniform_grid(np.linspace(0.1, 1.0, 10)),) * 2), uniform_matroid(2, 1)
        assert 27 * 605 <= _BLOCK < 28 * 605
        for count, sizes in [(0, []), (1, [1]), (26, [26]), (27, [27]), (28, [27, 1]), (55, [27, 27, 1])]:
            blocks = list(_auctions(oracles.block_of([prior] * count, 2), fs))
            assert [trials_of(block) for block in blocks] == sizes
            assert all(isinstance(block, Tables) for block in blocks)

    def test_a_prior_of_another_bidder_count_is_refused(self, monkeypatch):
        prior, fs = ProductDist((uniform_grid([0.5, 1.0]),)), uniform_matroid(2, 1)
        for block in (1 << 14, 1):  # with tables, and on lines
            monkeypatch.setattr("myersonlab.auction._BLOCK", block)
            with pytest.raises(ValueError, match="^prior has 1 bidders, system has 2$"):
                list(_auctions(oracles.block_of([prior, prior], 1), fs))


class TestBlockEvaluation:
    """_expected_revenues and _allocations read a block's arrays once, and give each of its trials' myerson
    auctions' expected_revenue and allocate, bit for bit."""

    @pytest.mark.parametrize("small", [False, True], ids=["default-block", "small-block"])
    @pytest.mark.parametrize("fs", [uniform_matroid(2, 1), minimum_non_matroid()], ids=["matroid", "non-matroid"])
    def test_each_auction_of_a_block(self, fs, small, monkeypatch):
        if small:  # some trials run lines, as in TestAuctionBlocks
            monkeypatch.setattr("myersonlab.auction._BLOCK", 120 * (len(fs.vertices) + fs.n))
        rng = np.random.default_rng(41)
        priors = [random_prior(rng, fs.n) for _ in range(40)]  # their lowest atoms are at 1/8 or above
        priors[5:5] = [ProductDist((uniform_grid(np.linspace(0.1, 1.0, 10)),) * fs.n)] * 2
        blocks = list(_auctions(oracles.block_of(priors, fs.n), fs))
        assert max(map(trials_of, blocks)) > 2
        assert any(len(set(b.cells[:, 0].tolist())) > 1 for b in blocks if isinstance(b, Tables))  # pad cells
        assert any(isinstance(b, Auction) for b in blocks) == small
        # atoms at 0 and 1/16, below every auction's lowest threshold, fall in cell 0
        low = make_discrete([0.0, 1 / 16, 0.3, 0.5, 0.8], [0.1, 0.15, 0.25, 0.3, 0.2])
        dists = [ProductDist((low,) * fs.n), random_prior(rng, fs.n)]
        values = [0.0, 1 / 16, *ATOMS, *(a + 1 / 16 for a in ATOMS[:-1])]
        profiles = np.array([[float(rng.choice(values)) for _ in range(fs.n)] for _ in range(30)])
        first = 0
        for block in blocks:
            auctions = [myerson(prior, fs) for prior in priors[first : first + trials_of(block)]]
            first += trials_of(block)
            for dist in dists:
                want = [expected_revenue(a, dist).hex() for a in auctions]
                assert [r.hex() for r in _expected_revenues(block, dist)] == want
            got = _allocations(block, profiles)
            assert got.shape == (len(auctions), len(profiles), fs.n)
            for a, x in zip(auctions, got.tolist()):
                assert list(map(tuple, x)) == [allocate(a, p) for p in profiles]
        assert first == len(priors)


class TestValueToCell:
    """allocate and payments read a bid only through its cell, with tables and on lines.

    Each bid is compared with a finite bid in the same cell, found by a
    bisection over the run thresholds, at which the scalar reference runs:
    the lowest atom halved (or -1.0 above an atom at 0) for cell 0 and the
    run's first atom for every other cell.
    """

    @pytest.mark.parametrize(
        "prior,fs",
        [
            pytest.param(GADGET_PRIOR, GADGET_FS, id="gadget"),
            pytest.param(ProductDist((IRONED_TEN,) * 3), uniform_matroid(3, 2), id="ironed-ten"),
            pytest.param(  # no zero vertex, fractional vertices
                ProductDist((IRONED_TEN, make_discrete([0.2, 0.3, 0.9], [0.6, 0.1, 0.3]))),
                from_vertices([[1.0, 0.5], [0.5, 1.0], [0.25, 0.25]]),
                id="no-zero-vertex",
            ),
            pytest.param(  # both vertices serve bidder 1, even in cell 0
                ProductDist((make_discrete([0.125, 1.0], [0.5, 0.5]), make_discrete([0.5, 1.0], [0.5, 0.5]))),
                from_vertices([[1.0, 1.0], [0.0, 1.0]]),
                id="forced-in-cell-0",
            ),
            pytest.param(  # an atom at 0, where -0.0 lands in cell 1
                ProductDist((make_discrete([0.0, 0.5, 1.0], [0.3, 0.3, 0.4]), uniform_grid([0.25, 0.75]))),
                uniform_matroid(2, 1),
                id="atom-at-zero",
            ),
        ],
    )
    def test_edge_bids(self, monkeypatch, prior, fs):
        a = myerson(prior, fs)
        monkeypatch.setattr("myersonlab.auction._BLOCK", 1)  # no grid fits
        lines = myerson(prior, fs)
        assert a._outcomes is not None and lines._outcomes is None
        bids, cells, reps = [], [], []
        for d in prior:
            th = [float(d.support[j]) for j in oracles.run_starts(d)]
            below = th[0] / 2 if th[0] > 0.0 else -1.0
            between = [(u + v) / 2 for u, v in zip(th, th[1:])]
            own = [-np.inf, -0.0, below, *th, *between, (th[-1] + 1.0) / 2, 1.5, np.inf]
            bids.append(own)
            cells.append([bisect_right(th, v) for v in own])
            reps.append([below, *th])
        rng = np.random.default_rng(30)
        for i, own in enumerate(bids):
            for k in range(len(own)):
                picks = [int(rng.integers(len(b))) for b in bids]
                picks[i] = k
                values = [b[j] for b, j in zip(bids, picks)]
                rep = [r[c[j]] for r, c, j in zip(reps, cells, picks)]
                x, pay = allocate(a, values), payments(a, values)
                assert x == allocate(lines, values) == oracles.allocate(a, rep), (values, rep)
                assert [p.hex() for p in pay] == [p.hex() for p in payments(lines, values)], values
                assert [p.hex() for p in pay] == [p.hex() for p in payments(a, rep)], (values, rep)
                assert pay == pytest.approx(oracles.payments(a, rep), abs=1e-12), (values, rep)


class TestNanBids:
    # NaN sorts above the top atom, so unchecked it bids like the highest value
    @pytest.mark.parametrize("bids", [(nan, 0.5), (0.5, nan)])
    def test_refused(self, bids):
        prior = ProductDist((make_discrete([0.2, 0.8], [0.5, 0.5]),) * 2)
        a = myerson(prior, uniform_matroid(2, 1))
        for evaluate in (allocate, payments):
            with pytest.raises(ValueError, match="NaN"):
                evaluate(a, bids)


class TestProfileWidth:
    # the message names the profile's shape and the auction's bidder count
    @pytest.mark.parametrize("bids", [(0.5,), (0.5, 0.2, 0.8), 0.5, [[0.5, 0.2]]])
    def test_refused_with_both_counts(self, bids, monkeypatch):
        prior = ProductDist((make_discrete([0.2, 0.8], [0.5, 0.5]),) * 2)
        tables = myerson(prior, uniform_matroid(2, 1))
        monkeypatch.setattr("myersonlab.auction._BLOCK", 1)  # no grid fits
        lines = myerson(prior, uniform_matroid(2, 1))
        assert tables._outcomes is not None and lines._outcomes is None
        for a, evaluate in iproduct((tables, lines), (allocate, payments)):
            with pytest.raises(ValueError, match=re.escape(f"shape {np.shape(bids)} for 2 bidders")):
                evaluate(a, bids)


def test_payments_on_fresh_bids_leave_memory_flat():
    prior = ProductDist(tuple(uniform_grid(np.linspace(0.01, 1.0, 40)) for _ in range(3)))
    a = myerson(prior, uniform_matroid(3, 2))
    bids = np.random.default_rng(3).random((2001, 3))
    payments(a, tuple(bids[0]))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for row in bids[1:]:
            payments(a, tuple(row))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024


def test_line_evaluations_keep_no_second_copy_of_the_term_tables():
    # 2,510 vertices and four cells per bidder hold no outcome tables; the
    # auction's term tables, 12 x 4 x 2,510 numbers, outweigh one line evaluation
    prior = ProductDist((make_discrete([0.2, 0.5, 0.9], [0.3, 0.4, 0.3]),) * 12)
    fs = uniform_matroid(12, 6)
    a = myerson(prior, fs)
    assert a._outcomes is None
    tables = fs.n * (max(run_counts(a)) + 1) * len(fs.vertices) * 8
    assert a._terms.nbytes == tables
    values = (0.9, 0.5, 0.2, 0.1) * 3
    for evaluate in (allocate, payments):
        evaluate(a, values)
        tracemalloc.start()
        try:
            evaluate(a, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tables, (evaluate.__name__, peak)


def test_evaluation_memory_is_bounded_by_the_block():
    # unblocked, each evaluation would hold over 10 * _BLOCK numbers at once:
    # the points of its lines, or welfare scores per cell
    many = ProductDist((make_discrete([0.5, 1.0], [0.5, 0.5]),) * 15)
    wide = ProductDist(tuple(uniform_grid(np.linspace(0.01, 1.0, 60)) for _ in range(2)))
    fractional = from_vertices([[p / 7, q / 7] for p in range(8) for q in range(8 - p)])
    unanimous = myerson(many, all_or_nothing(15, 15))
    # the widest table that fits: 57^2 cells times 3 vertices and 2 bidders
    fits = ProductDist(tuple(uniform_grid(np.linspace(0.01, 1.0, 56)) for _ in range(2)))
    assert myerson(fits, uniform_matroid(2, 1))._outcomes is not None
    assert unanimous._outcomes is None  # 2^15 cells do not fit
    evaluations = {
        "exact, 2^15 profiles": lambda: expected_revenue(unanimous, many),
        "welfare, 36 vertices": lambda: expected_virtual_welfare(myerson(wide, fractional)),
        "myerson, 57^2 cells": lambda: myerson(fits, uniform_matroid(2, 1)),
    }
    peaks = {}
    for name, evaluate in evaluations.items():
        tracemalloc.start()
        try:
            evaluate()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) < 64 * _BLOCK, peaks
