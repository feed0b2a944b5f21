"""Experiment harness: reports, counterexamples, inequality checks, trials."""

import json
import tracemalloc
from bisect import bisect_right
from itertools import combinations
from math import log, nan, sqrt

import numpy as np
import pytest
from hypothesis import event, given, settings, target
from hypothesis import strategies as st

from myersonlab.auction import (
    _BLOCK,
    Auction,
    _allocations,
    _expected_revenues,
    expected_revenue,
    myerson,
    opt_revenue,
)
from myersonlab.cli import _csv
from myersonlab.dist import (
    ProductDist,
    ValueDist,
    _curve,
    ironing_intervals,
    make_discrete,
    min_closeness_eps,
    point_mass,
    virtual_table,
)
from myersonlab.feasible import (
    _exchange_violation,
    all_or_nothing,
    from_independent_sets,
    from_vertices,
    members,
    minimum_non_matroid,
    uniform_matroid,
)
from myersonlab.lab import (
    VERDICT_TOL,
    PreconditionError,
    Report,
    _drop,
    _report,
    _require_dominated_close,
    check_approx_monotone,
    embed_counterexample,
    lipschitz_pair,
    nonmonotone_gadget,
    run_copies,
    run_lb_family,
    run_lipschitz_lb,
    run_nonmonotone,
    run_sample_complexity,
)
from myersonlab.learn import _TRIALS, SampleMatrix, _learn_counts, _trial_counts, draw_samples

import oracles
from fuzz import (
    dominated_pair,
    downward_closed_families,
    gadget_pairs,
    random_downward_closed,
    random_feasible,
    random_product,
    shift_down,
    uniform_grid,
)
from test_dist import value_of_quantile

MINNON_SETS = [(), (0,), (1,), (2,), (1, 2)]


@st.composite
def random_closures(draw):
    """Downward closure of two to four random bidder sets, on 5 to 10 bidders."""
    n = draw(st.integers(5, 10))
    bidder_sets = st.frozensets(st.integers(0, n - 1), min_size=2, max_size=6)
    tops = draw(st.lists(bidder_sets, min_size=2, max_size=4))
    sets = {c for top in tops for r in range(len(top) + 1) for c in combinations(sorted(top), r)}
    return from_independent_sets(n, sets)


SMALL_MATROIDS = [
    fs
    for fs in (
        from_independent_sets(n, map(members, fam))
        for n in (3, 4)
        for fam in downward_closed_families(n)
        if fam
    )
    if _exchange_violation(fs) is None  # downward closed with the empty set: exchange decides
]
EIGHTHS = [j / 8 for j in range(1, 9)]


@st.composite
def matroid_instances(draw):
    """A matroid on 3 or 4 bidders with (dominating, design) priors on the grid of eighths.

    Each design atom moves a random share of its mass to a random grid value
    at or above it, so the dominating prior dominates the design prior.
    """
    fs = draw(st.sampled_from(SMALL_MATROIDS))
    big, design = [], []
    for _ in range(fs.n):
        atoms = draw(st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(atoms), max_size=len(atoms)))
        total = sum(weights)
        moved = dict.fromkeys(atoms, 0)
        for j, w in zip(atoms, weights):
            up = draw(st.integers(j, 7))
            share = draw(st.integers(0, w))
            moved[j] += w - share
            moved[up] = moved.get(up, 0) + share
        design.append(make_discrete([EIGHTHS[j] for j in atoms], [w / total for w in weights]))
        big.append(make_discrete([EIGHTHS[j] for j in moved], [w / total for w in moved.values()]))
    return fs, ProductDist(tuple(big)), ProductDist(tuple(design))


class TestReport:
    def test_json_shape_and_reproducibility(self):
        r = run_nonmonotone(0.1)
        obj = r.to_json()
        assert set(obj) == {"experiment", "params", "metrics", "verdict", "seed"}
        assert obj["verdict"] in ("pass", "fail")
        assert obj == run_nonmonotone(0.1).to_json()

    def test_csv_rows(self):
        r = run_nonmonotone(0.1)
        header, *rows = _csv(r).split("\n")
        assert header == "experiment,params,metric,value,verdict"
        assert len(rows) == len(r.metrics)
        assert rows[0].startswith("nonmonotone,eps=0.1,")
        assert rows[0].endswith(",pass")


class TestNonmonotone:
    def test_frozen_values(self):
        r = run_nonmonotone(0.1)
        assert r.metrics["revenue_on_design_prior"] == pytest.approx(0.605, abs=1e-9)
        assert r.metrics["revenue_on_dominating"] == pytest.approx(0.2, abs=1e-9)
        assert r.metrics["gap"] == pytest.approx(0.405, abs=1e-9)
        assert r.passed

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_stable_across_eps(self, eps):
        r = run_nonmonotone(eps)
        assert r.passed
        assert r.metrics["revenue_on_dominating"] == pytest.approx(2 * eps, abs=1e-9)
        assert r.metrics["revenue_on_design_prior"] > 0.5

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            run_nonmonotone(0.5)


class TestCopies:
    @pytest.mark.parametrize("k,gap", [(2, 0.405), (3, 0.405), (4, 0.810)])
    def test_gap_scales_with_copies(self, k, gap):
        r = run_copies(k)
        assert r.metrics["gap"] == pytest.approx(gap, abs=1e-9)
        assert r.passed

    def test_k_validation(self):
        with pytest.raises(ValueError):
            run_copies(1)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_matches_the_materialized_union(self, k):
        copies = k // 2
        dtilde, d, fs = nonmonotone_gadget(0.1)
        big_dtilde = ProductDist(dtilde * copies)
        a = myerson(big_dtilde, oracles.disjoint_union([fs] * copies))
        on_design = expected_revenue(a, big_dtilde)
        on_dominating = expected_revenue(a, ProductDist(d * copies))
        m = run_copies(k).metrics
        assert m["copies"] == copies
        assert m["revenue_on_design_prior"] == pytest.approx(on_design, abs=1e-12)
        assert m["revenue_on_dominating"] == pytest.approx(on_dominating, abs=1e-12)
        assert m["gap"] == pytest.approx(on_design - on_dominating, abs=1e-12)

    @pytest.mark.parametrize("k", [10, 20, 40])
    def test_exact_gap_past_four_copies(self, k):
        r = run_copies(k)
        assert r.metrics["gap"] == pytest.approx(0.405 * (k // 2), abs=1e-9)
        assert r.passed

    @pytest.mark.parametrize("seed", range(6))
    def test_union_revenue_is_the_sum_of_the_parts(self, seed):
        rng = np.random.default_rng(seed)
        parts = [random_downward_closed(rng, int(rng.integers(1, 4))) for _ in range(2)]
        pairs = [dominated_pair(rng, p.n) for p in parts]  # (dominating, design) per part
        whole = myerson(
            ProductDist(sum((design for _, design in pairs), ())),
            oracles.disjoint_union(parts),
        )
        for side in (0, 1):
            split = sum(
                expected_revenue(myerson(pair[1], p), pair[side]) for p, pair in zip(parts, pairs)
            )
            joint = ProductDist(sum((pair[side] for pair in pairs), ()))
            assert expected_revenue(whole, joint) == pytest.approx(split, abs=1e-12)


class TestEmbed:
    def test_minimum_non_matroid_scaled_gap(self):
        r = embed_counterexample(minimum_non_matroid())
        assert r.metrics["revenue_on_design_prior"] == pytest.approx(0.605 / 3, abs=1e-9)
        assert r.metrics["revenue_on_dominating"] == pytest.approx(0.2 / 3, abs=1e-9)
        assert r.metrics["gap"] == pytest.approx(0.405 / 3, abs=1e-9)
        assert r.passed

    def test_dummy_bidder_adds_intersection_revenue(self):
        sets = [tuple(sorted(set(s) | set(t))) for s in MINNON_SETS for t in [(), (3,)]]
        r = embed_counterexample(from_independent_sets(4, sets))
        assert r.metrics["intersection_size"] == 1
        assert r.metrics["revenue_on_design_prior"] == pytest.approx(1 + 0.605 / 4, abs=1e-9)
        assert r.metrics["revenue_on_dominating"] == pytest.approx(1 + 0.2 / 4, abs=1e-9)
        assert r.metrics["gap"] == pytest.approx(0.405 / 4, abs=1e-9)

    def test_matroid_rejected(self):
        with pytest.raises(PreconditionError, match="matroid"):
            embed_counterexample(uniform_matroid(3, 2))

    def test_not_downward_closed_rejected(self):
        with pytest.raises(PreconditionError, match="downward-closed"):
            embed_counterexample(from_independent_sets(2, [(), (0, 1)]))

    def test_fractional_rejected(self):
        with pytest.raises(PreconditionError, match="binary"):
            embed_counterexample(all_or_nothing(2, 1))

    def test_more_bidders_than_the_limit_rejected(self):
        # the library refuses on its own, not only behind the CLI's check
        with pytest.raises(PreconditionError, match=r"^embedding limited to n <= 10$"):
            embed_counterexample(uniform_matroid(11, 2))

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_stable_across_eps(self, eps):
        assert embed_counterexample(minimum_non_matroid(), eps).passed

    @pytest.mark.parametrize(
        "eps, gap", [(0.5, 0.041666666666666685), (0.9, 0.0016666666666667052)]
    )
    def test_gap_past_the_gadget_range(self, eps, gap):
        # the gadget itself needs eps < 1/2; the embedded one keeps a gap up to 1
        r = embed_counterexample(minimum_non_matroid(), eps)
        assert r.passed and r.metrics["gap"] == gap

    @pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, -0.5, float("inf"), float("nan")])
    def test_eps_outside_the_open_unit_interval(self, eps):
        # at 0 or 1 the gap is 0, which would read as a refuted claim
        with pytest.raises(ValueError, match=r"eps .* outside \(0, 1\)"):
            embed_counterexample(minimum_non_matroid(), eps)

    def test_every_four_bidder_non_matroid(self):
        # outsiders tie with B and C at virtual value 0 unless their own is
        # negative; with point masses at 0, 33 of these 99 systems failed
        families = [fam for fam in downward_closed_families(4) if fam]
        assert len(families) == 167
        systems = [from_independent_sets(4, [members(m) for m in fam]) for fam in families]
        non_matroids = [fs for fs in systems if _exchange_violation(fs) is not None]
        assert len(non_matroids) == 99
        for fs in non_matroids:
            assert embed_counterexample(fs).metrics["gap"] > 0.09, fs.to_json()

    @given(random_closures())
    @settings(max_examples=300, deadline=None)
    def test_random_closures(self, fs):
        matroid = _exchange_violation(fs) is None
        event("matroid" if matroid else "non-matroid")
        if matroid:
            with pytest.raises(PreconditionError, match="matroid"):
                embed_counterexample(fs)
        else:
            r = embed_counterexample(fs)
            assert r.passed and r.metrics["gap"] > 0.0, fs.to_json()


class TestMatroidHalf:
    """Every matroid keeps its design-prior auction's revenue when the prior is dominated."""

    @pytest.mark.parametrize("n, matroids, random_pairs", [(3, 16, 40), (4, 68, 20)])
    def test_every_matroid_on_few_bidders(self, n, matroids, random_pairs):
        systems = [fs for fs in SMALL_MATROIDS if fs.n == n]
        assert len(systems) == matroids
        rng = np.random.default_rng(n)
        gadgets = gadget_pairs(n)
        for fs in systems:
            for big, design in [dominated_pair(rng, n) for _ in range(random_pairs)] + gadgets:
                a = myerson(design, fs)
                drop = expected_revenue(a, big) - expected_revenue(a, design)
                assert drop >= -1e-9, (fs.to_json(), big, design)

    @given(matroid_instances())
    @settings(max_examples=400, deadline=None)
    def test_targeted_search_for_a_drop(self, instance):
        fs, big, design = instance
        a = myerson(design, fs)
        drop = expected_revenue(a, big) - expected_revenue(a, design)
        target(-drop)  # steer the search toward the largest revenue loss
        assert drop >= -1e-9, (fs.to_json(), big, design)


class TestApproxMonotone:
    def test_identical_pair_trivially_passes(self):
        d = ProductDist((uniform_grid([0.2, 0.6, 1.0]), point_mass(0.5)))
        r = check_approx_monotone(d, d, 0.3, uniform_matroid(2, 1))
        assert r.passed

    def test_gadget_pair_is_not_close(self):
        dtilde, d, fs = nonmonotone_gadget(0.1)
        with pytest.raises(PreconditionError, match="closeness"):
            check_approx_monotone(d, dtilde, 0.1, fs)

    def test_dominance_precondition(self):
        dtilde, d, fs = nonmonotone_gadget(0.1)
        with pytest.raises(PreconditionError, match="dominance"):
            check_approx_monotone(dtilde, d, 0.1, fs)

    def test_dimension_mismatch(self):
        d = ProductDist((uniform_grid([0.2, 0.6, 1.0]), point_mass(0.5)))
        with pytest.raises(ValueError, match="^distribution and system dimensions disagree$"):
            check_approx_monotone(d, d, 0.3, minimum_non_matroid())

    def _fuzz(self, uniform, count, seed):
        rng = np.random.default_rng(seed)
        done = 0
        while done < count:
            n = int(rng.integers(1, 4))
            big, small = dominated_pair(rng, n, strength=0.25)
            fs = random_feasible(rng, n)
            if uniform:
                eps = oracles.min_uniform_closeness_eps(big, small, n, fs.rank)
            else:
                eps = min_closeness_eps(big, small, n, fs.rank)
            eps = eps * (1 + 1e-9) + 1e-12
            if eps > 1.0:
                continue
            r = check_approx_monotone(big, small, eps, fs, uniform=uniform)
            assert r.passed, r.to_json()
            done += 1

    def test_fuzz_nonuniform(self):
        self._fuzz(uniform=False, count=80, seed=101)

    def test_fuzz_uniform_variant(self):
        self._fuzz(uniform=True, count=80, seed=102)


REVENUES = {"revenue_on_design_prior", "revenue_on_dominating"}


class TestRevenueReports:
    """The three monotonicity experiments report the same two revenue metrics: the constructions
    with their gap and a strict-drop verdict, approx-monotone with its slack."""

    def test_nonmonotone_keys(self):
        assert set(run_nonmonotone(0.1).metrics) == REVENUES | {"gap"}

    def test_embed_keys(self):
        r = embed_counterexample(minimum_non_matroid())
        witness = {"violating_set", "violating_smaller_set", "intersection_size"}
        assert set(r.metrics) == witness | REVENUES | {"gap"}

    def test_approx_monotone_keys(self):
        d = ProductDist((uniform_grid([0.2, 0.6, 1.0]), point_mass(0.5)))
        r = check_approx_monotone(d, d, 0.3, uniform_matroid(2, 1))
        assert set(r.metrics) == REVENUES | {"slack"}

    def test_a_gap_of_zero_fails(self):
        # no public input reaches it: the gadget takes eps in (0, 1/2) and embed eps in (0, 1),
        # where both drop; the design prior scored against itself gives exactly 0.0
        dtilde, _, fs = nonmonotone_gadget(0.1)
        r = _drop("nonmonotone", {"eps": 0.1}, dtilde, dtilde, fs)
        assert r.metrics["gap"] == 0.0 and r.verdict == "fail"

    @pytest.mark.parametrize(
        "past, verdict", [(-0.1, "pass"), (0.0, "pass"), (1e-12, "pass"), (0.5 * VERDICT_TOL, "pass"),
                          (2 * VERDICT_TOL, "fail"), (0.1, "fail")]
    )
    def test_approx_verdict_at_the_slack(self, monkeypatch, past, verdict):
        # a drop of the slack plus rounding passes; a drop past the slack by more than VERDICT_TOL fails
        revenues = {"revenue_on_design_prior": 1.0, "revenue_on_dominating": 0.75 - past}
        monkeypatch.setattr("myersonlab.lab._revenues", lambda dtilde, d, fs: dict(revenues))
        d = ProductDist((uniform_grid([0.2, 0.6, 1.0]), point_mass(0.5)))
        r = check_approx_monotone(d, d, 0.25, uniform_matroid(2, 1))
        assert r.metrics == {**revenues, "slack": 0.25} and r.verdict == verdict


# The paper's single-bidder lemma, checked exactly on finite priors. Only
# the tests below call it, so it lives here rather than in the library.


def _quantile_segments(d: ValueDist) -> list[tuple[float, float, float]]:
    """Partition of [0, 1) into (q_lo, q_hi, value) runs of the quantile-to-value map."""
    tails = d._above
    return [(tails[j + 1], tails[j], d.support[j]) for j in range(len(d.support) - 1, -1, -1)]


def revenue_at(d: ValueDist, q: float) -> float:
    """d's revenue curve at quantile q, interpolated between its breakpoints."""
    qs, rs = _curve(d.support, d._above)
    return float(np.interp(q, qs, rs))


def check_single_bidder_bound(
    dd: ProductDist,
    dtilde: ProductDist,
    eps: float,
    n: int,
    k: float,
    i: int,
    theta: float,
    uniform: bool = False,
) -> Report:
    """One bidder's virtual-value integral against its revenue-curve bound.

    Integrates the design prior's virtual value along the dominating
    prior's quantile axis up to theta; both sides are exact because the
    integrand is a step function in the quantile.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta {theta!r} outside [0, 1]")
    _require_dominated_close(dd, dtilde, eps, n, k, uniform)
    if uniform:
        slack = eps / sqrt(n * k)
    else:
        slack = sqrt(theta * eps * eps / (4.0 * n * k)) + eps * eps / (2.0 * n * k)
    if ironing_intervals(dtilde[i]):
        raise PreconditionError("design prior coordinate is not regular")
    slopes = virtual_table(dtilde[i]).slopes

    def phi(v):
        """The design prior's ironed virtual value at v; None below its lowest atom."""
        k = bisect_right(dtilde[i].support, v) - 1
        return None if k < 0 else slopes[k]

    phi_at_theta = phi(value_of_quantile(dd[i], theta))
    if phi_at_theta is None or phi_at_theta < 0.0:
        raise PreconditionError("virtual value at the threshold quantile is negative")
    lhs = 0.0
    for q_lo, q_hi, value in _quantile_segments(dd[i]):
        width = min(theta, q_hi) - q_lo
        if width <= 0.0:
            continue
        if phi(value) is None:
            raise PreconditionError("a value below the design prior inside the integration range")
        lhs += phi(value) * width
    rhs = revenue_at(dd[i], theta) + slack
    return _report(
        "single-bidder-bound",
        {"eps": eps, "n": n, "k": k, "bidder": i, "theta": theta, "uniform": uniform},
        {"lhs": lhs, "rhs": rhs},
        lhs <= rhs + VERDICT_TOL,
    )


class TestSingleBidderBound:
    def test_theta_zero(self):
        d = ProductDist((point_mass(0.5),))
        r = check_single_bidder_bound(d, d, 0.5, 1, 1, 0, 0.0)
        assert r.metrics["lhs"] == 0.0
        assert r.passed

    def test_identity_on_concave_pair(self):
        d0 = make_discrete([0.25, 0.75], [0.5, 0.5])
        p = ProductDist((d0,))
        r = check_single_bidder_bound(p, p, 0.5, 1, 1, 0, 0.4)
        assert r.metrics["lhs"] == pytest.approx(revenue_at(d0, 0.4), abs=1e-12)
        assert r.passed

    def test_irregular_design_prior_rejected(self):
        irregular = make_discrete([0.4, 0.5, 1.0], [0.8, 0.1, 0.1])
        p = ProductDist((irregular,))
        with pytest.raises(PreconditionError, match="regular"):
            check_single_bidder_bound(p, p, 0.5, 1, 1, 0, 0.4)

    def test_fuzz_regular_pairs(self):
        rng = np.random.default_rng(17)
        done = 0
        worst = 1.0
        while done < 500:
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, n + 1))
            big = random_product(rng, n)
            small = ProductDist(tuple(shift_down(rng, dj, 0.25) for dj in big))
            i = int(rng.integers(0, n))
            if ironing_intervals(small[i]):
                continue
            eps = min_closeness_eps(big, small, n, k) * (1 + 1e-9) + 1e-12
            if eps > 1.0:
                continue
            theta = float(rng.choice([0.0, 0.1, 0.3, 0.5, 0.9, 1.0]))
            try:
                r = check_single_bidder_bound(big, small, eps, n, k, i, theta)
            except PreconditionError:
                continue
            assert r.passed, r.to_json()
            worst = min(worst, r.metrics["rhs"] - r.metrics["lhs"])
            done += 1
        assert worst >= -1e-9


class TestLipschitzLowerBound:
    def test_frozen_instance(self):
        r = run_lipschitz_lb(2, 1, 0.01)
        assert r.metrics["opt_on_smaller"] == pytest.approx(0.5625, abs=1e-12)
        assert r.metrics["opt_on_larger"] == pytest.approx(0.5643765625, abs=1e-12)
        assert r.metrics["difference"] == pytest.approx(1.8765625e-3, abs=1e-12)
        assert r.passed

    def test_difference_matches_closed_form(self):
        for n, k, eps in [(2, 1, 0.01), (3, 2, 0.008), (4, 4, 0.005)]:
            r = run_lipschitz_lb(n, k, eps)
            assert r.metrics["difference"] == pytest.approx(
                r.metrics["closed_form_difference"], abs=1e-12
            )

    def test_zero_eps_degenerates(self):
        r = run_lipschitz_lb(2, 1, 0.0)
        assert r.metrics["difference"] == pytest.approx(0.0, abs=1e-15)
        assert r.passed

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run_lipschitz_lb(2, 3, 0.01)

    @pytest.mark.parametrize(
        "k, eps, match",
        [(0, 0.1, "rank k=0"), (3, 0.1, "rank k=3"), (1, 1.5, "eps 1.5"), (1, nan, "eps nan")],
    )
    def test_pair_checks_its_arguments(self, k, eps, match):
        with pytest.raises(ValueError, match=match):
            lipschitz_pair(2, k, eps)


def lipschitz_eps_for(eps_prime: float, n: int, k: float, c: float) -> float | None:
    """Smallest eps whose Lipschitz closeness threshold covers eps_prime.

    Solves c * eps / sqrt(k * ln(nk / eps)) >= eps_prime; the left side is
    increasing in eps whenever nk >= 2. Returns None if eps = 1 is not
    enough.
    """

    def threshold(eps: float) -> float:
        return c * eps / sqrt(k * log(n * k / eps))

    if threshold(1.0) < eps_prime:
        return None
    lo, hi = min(eps_prime, 1.0), 1.0
    if threshold(lo) >= eps_prime:
        return lo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if threshold(mid) >= eps_prime:
            hi = mid
        else:
            lo = mid
    return hi


class TestLipschitzUpperFuzz:
    """Close pairs without dominance keep the design-prior revenue nearly intact."""

    @pytest.mark.parametrize("c", [0.25, 0.5])
    def test_swept_constant(self, c):
        rng = np.random.default_rng(21)
        done = 0
        while done < 100:
            n = int(rng.integers(2, 4))
            base = random_product(rng, n)
            one = ProductDist(tuple(shift_down(rng, dj, 0.08) for dj in base))
            other = ProductDist(tuple(shift_down(rng, dj, 0.08) for dj in base))
            fs = random_feasible(rng, n)
            eps_prime = min_closeness_eps(other, one, n, fs.rank) * (1 + 1e-9) + 1e-12
            if eps_prime > 0.5:
                continue
            eps = lipschitz_eps_for(eps_prime, n, fs.rank, c)
            if eps is None or eps > 1.0:
                continue
            a = myerson(one, fs)
            assert (
                expected_revenue(a, other)
                >= expected_revenue(a, one) - eps - 1e-9
            )
            done += 1


def advanced(steps, seed, member=None):
    """A fresh copy of a trial loop's stream, advanced past its first steps doubles.

    sample-complexity seeds default_rng(seed); lb-family gives family member
    mi the stream of SeedSequence(seed, spawn_key=(mi,)). The loops once drew
    trial t's samples from the t-th block of count x n doubles, and the values
    frozen on those sample streams are kept on the oracle below.
    """
    g = np.random.default_rng(seed if member is None else np.random.SeedSequence(seed, spawn_key=(member,)))
    g.bit_generator.advance(steps)
    return g


def count_rows(d, count, trials, seed, *key):
    """Trials' per-atom counts in one draw from a fresh copy of a trial loop's stream: row j of trial t
    counts bidder j's samples at each atom of d[j], after zeros up to the widest support."""
    width = max(len(dj.support) for dj in d)
    masses = [[0.0] * (width - len(dj.probs)) + dj.probs.tolist() for dj in d]
    stream = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    return stream.multinomial(count, masses, size=(trials, d.n))


def as_samples(d, counts):
    """A sample matrix with a trial's per-atom counts, each column in increasing order: the learner
    reads only how many samples are at most each value, so it learns what the counts give."""
    columns = [np.repeat(dj.support, c[len(c) - len(dj.support) :]) for dj, c in zip(d, counts)]
    return SampleMatrix(np.stack(columns, axis=1))


def three_atom_pair():
    return ProductDist((make_discrete([0.2, 0.5, 0.9], [0.3, 0.4, 0.3]),
                        make_discrete([0.1, 0.6, 0.8], [0.5, 0.2, 0.3])))


@pytest.fixture
def drawn(monkeypatch):
    """The (prior, count, counts) of every block of counts a trial loop in lab drew, in draw order."""
    calls = []

    def record(d, count, trials, seed, *key):
        for block in _trial_counts(d, count, trials, seed, *key):
            calls.append((d, count, block))
            yield block

    monkeypatch.setattr("myersonlab.lab._trial_counts", record)
    return calls


class TestTrialStreams:
    """Trial t of a trial loop is row t of one multinomial draw of per-atom counts from one stream,
    whatever the number of trials, drawn in blocks of at most _TRIALS trials and _BLOCK // 5 numbers, or one
    trial."""

    def test_sample_complexity_reads_consecutive_blocks(self, drawn, monkeypatch):
        d = ProductDist((uniform_grid([0.2, 0.5, 1.0]), uniform_grid([0.3, 0.9])))  # 2 x 3 counts a trial
        fs = uniform_matroid(2, 1)
        want = count_rows(d, 21, 5, 11)
        assert (want[:, 1, 0] == 0).all() and (want.sum(axis=2) == 21).all()  # the second bidder's pad
        assert not np.array_equal(want[0], want[1])
        for block, trials, sizes in [(60, 3, [2, 1]), (60, 5, [2, 2, 1]), (20, 5, [1] * 5), (1 << 14, 5, [5])]:
            monkeypatch.setattr("myersonlab.learn._BLOCK", block)
            drawn.clear()
            assert run_sample_complexity(fs, d, 0.5, 0.3, 1.0, trials, 11).metrics["samples_per_trial"] == 21
            assert all(prior is d and count == 21 for prior, count, _ in drawn)
            assert [len(counts) for _, _, counts in drawn] == sizes
            assert all(counts.size <= max(6, block // 5) for _, _, counts in drawn)
            assert np.array_equal(np.concatenate([counts for _, _, counts in drawn]), want[:trials])

    def test_lb_family_members_read_their_own_streams(self, drawn, monkeypatch):
        n, budget = 2, 8
        monkeypatch.setattr("myersonlab.learn._BLOCK", 40)  # two trials of 2 x 2 counts a block
        for trials, sizes in ((3, [2, 1]), (5, [2, 2, 1])):
            drawn.clear()
            run_lb_family(n, 1, 0.01, budget, trials, 6)
            members = list({id(member): member for member, _, _ in drawn}.values())  # in draw order
            assert len(members) == 4
            for mi, member in enumerate(members):
                blocks = [counts for prior, _, counts in drawn if prior is member]
                assert [len(counts) for counts in blocks] == sizes
                # with 5 trials, the first 3 rows are those of 3 trials
                assert np.array_equal(np.concatenate(blocks), count_rows(member, budget, 5, 6, mi)[:trials])

    def test_a_block_holds_at_most_the_trial_cap(self, drawn):
        d, fs = three_atom_pair(), uniform_matroid(2, 1)
        assert (2 * _TRIALS + 1) * 6 <= _BLOCK  # the numbers alone would fit them all
        run_sample_complexity(fs, d, 0.5, 0.3, 1.0, 2 * _TRIALS + 1, 11)
        assert [len(counts) for _, _, counts in drawn] == [_TRIALS, _TRIALS, 1]
        count = drawn[0][1]
        assert np.array_equal(np.concatenate([c for _, _, c in drawn]), count_rows(d, count, 2 * _TRIALS + 1, 11))

    @pytest.mark.parametrize(
        "run",
        [
            lambda: _trial_counts(three_atom_pair(), 5, 0, 0),
            lambda: run_sample_complexity(uniform_matroid(2, 1), three_atom_pair(), 0.1, 0.1, 1.0, 0, 0),
            lambda: run_lb_family(2, 1, 0.01, 5, 0, 0),
        ],
        ids=["draw", "sample-complexity", "lb-family"],
    )
    def test_zero_trials_are_refused_by_the_count_draw(self, run, monkeypatch):
        # _trial_counts checks the trial count when called, before any auction is built
        monkeypatch.setattr("myersonlab.lab.myerson", None)
        monkeypatch.setattr("myersonlab.lab._auctions", None)
        monkeypatch.setattr("myersonlab.lab.opt_revenue", None)
        with pytest.raises(ValueError, match="^trials must be at least 1$"):
            run()


class TestTrialLoopsAcrossBlocks:
    """Loops of several blocks report what per-trial loops of the oracle learner report."""

    def test_sample_complexity(self, monkeypatch):
        d = three_atom_pair()
        fs = uniform_matroid(2, 1)
        count, opt = 159, opt_revenue(d, fs)

        def failed(samples):
            learned = (oracles.dominated_empirical(s, 0.1) for s in samples)
            return [expected_revenue(myerson(prior, fs), d) < opt - 0.1 for prior in learned]

        old = failed(oracles.draw_samples(d, count, advanced(t * count * d.n, 3)) for t in range(120))
        new = failed(as_samples(d, counts) for counts in count_rows(d, count, 120, 3))
        monkeypatch.setattr("myersonlab.learn._BLOCK", 5 * 51 * 6)  # 51 trials of 2 x 3 counts a block
        for trials, freq in [(1, 0.0), (50, 0.82), (51, 0.8235294117647058), (52, 0.8269230769230769),
                             (120, 0.8166666666666667)]:
            assert sum(old[:trials]) / trials == freq  # as frozen on the sample streams
            r = run_sample_complexity(fs, d, 0.1, 0.1, 0.15, trials, 3)
            assert r.metrics["samples_per_trial"] == count
            assert r.metrics["failure_frequency"] == sum(new[:trials]) / trials

    def test_lb_family(self, monkeypatch):
        n, k, eps, budget, trials, seed = 3, 1, 0.01, 300, 40, 5

        def blocks(mi, t, member):  # block t of member mi's stream of doubles
            return oracles.draw_samples(member, budget, advanced(t * budget * n, seed, mi))

        def rows(mi, t, member):  # row t of member mi's stream of counts
            return as_samples(member, count_rows(member, budget, t + 1, seed, mi)[t])

        assert oracles.lb_family_regret(n, k, eps, trials, blocks) == float.fromhex("0x1.b2aa536cd6345p-4")
        monkeypatch.setattr("myersonlab.learn._BLOCK", 5 * 18 * n * 2)  # blocks of 18, 18 and 4 trials
        want = oracles.lb_family_regret(n, k, eps, trials, rows)
        assert run_lb_family(n, k, eps, budget, trials, seed).metrics["avg_regret"] == want


class TestTrialLoopsAcrossAuctionBlocks:
    """Blocks of counts, and so learner calls and auction blocks, split anywhere give the reports of
    the default split."""

    @pytest.mark.parametrize("cap", [1, 2, 3, 7, 64])
    def test_sample_complexity(self, cap, monkeypatch):
        d = three_atom_pair()
        fs = uniform_matroid(2, 1)
        want = [run_sample_complexity(fs, d, 0.1, 0.1, 0.15, t, 3).metrics for t in (1, 13, 120)]
        monkeypatch.setattr("myersonlab.learn._TRIALS", cap)
        assert [run_sample_complexity(fs, d, 0.1, 0.1, 0.15, t, 3).metrics for t in (1, 13, 120)] == want

    @pytest.mark.parametrize("cap", [1, 3, 64])
    def test_lb_family(self, cap, monkeypatch):
        want = run_lb_family(3, 1, 0.01, 300, 40, 5).metrics
        monkeypatch.setattr("myersonlab.learn._TRIALS", cap)
        assert run_lb_family(3, 1, 0.01, 300, 40, 5).metrics == want

    def test_lb_family_learns_no_empty_stack(self, monkeypatch):
        # at one sample a trial the 16 members of n = 4 meet few distinct counts, most of them
        # in an earlier block, so most blocks hold no new key
        stacks = []

        def spy(d, counts, delta):
            stacks.append(len(counts))
            return _learn_counts(d, counts, delta)

        monkeypatch.setattr("myersonlab.lab._learn_counts", spy)
        run_lb_family(4, 2, 0.01, 1, 16, 5)
        assert stacks and 0 not in stacks
        assert len(stacks) < 16  # some members meet no new key at all


def kinds_of(blocks):
    """Each block of _auctions as the trial loops read it: 0 for an Auction on lines, else its trials."""
    return [0 if isinstance(block, Auction) else len(block.cells) for block in blocks]


class TestTrialLoopsAgainstPerTrialAuctions:
    """With blocks of counts and auction blocks cut small, so that blocks split and some trials run lines, each
    loop reads every trial as myerson of the trial's own learned prior reads it, bit for bit."""

    @staticmethod
    def revenues(monkeypatch, d, fs, delta, C, trials, seed):
        """Each trial's revenue as sample-complexity reads it and as myerson of the oracle learner's prior reads
        it, in trial order, and the trials of each block read (0 for a trial on lines)."""
        got, kinds = [], []

        def spy(block, dist):
            kinds.extend(kinds_of([block]))
            got.extend(revenues := _expected_revenues(block, dist))
            return revenues

        monkeypatch.setattr("myersonlab.lab._expected_revenues", spy)
        count = run_sample_complexity(fs, d, 0.1, delta, C, trials, seed).metrics["samples_per_trial"]
        want = []
        for counts in count_rows(d, count, trials, seed):
            unpadded = [c[len(c) - len(dj.support) :].tolist() for dj, c in zip(d, counts)]
            want.append(expected_revenue(myerson(oracles.counted_empirical(d, unpadded, delta), fs), d).hex())
        return [r.hex() for r in got], want, kinds

    def test_sample_complexity_revenues(self, monkeypatch):
        # 84 samples a trial: some of the rarer atoms are not drawn, so the learned grids take 9 to 25 cells
        d = ProductDist((make_discrete([0.1, 0.3, 0.5, 0.7, 0.9], [0.45, 0.05, 0.35, 0.05, 0.1]),
                         make_discrete([0.2, 0.4, 0.6, 0.8], [0.4, 0.1, 0.2, 0.3])))
        monkeypatch.setattr("myersonlab.learn._TRIALS", 7)
        monkeypatch.setattr("myersonlab.auction._BLOCK", 120)  # 25 cells run lines, 12 fit two at a time
        got, want, kinds = self.revenues(monkeypatch, d, uniform_matroid(2, 1), 0.3, 0.1, 60, 11)
        assert 0 in kinds and max(kinds) > 1 and sum(kinds) + kinds.count(0) == 60
        assert got == want

    def test_sample_complexity_on_rows_past_the_gate(self, monkeypatch):
        # 1,752 samples of 150 atoms learn rows past _GATE atoms, which the block fill leaves to ValueDist
        d = ProductDist((uniform_grid(np.linspace(0.005, 0.75, 150)),))
        monkeypatch.setattr("myersonlab.learn._TRIALS", 3)
        got, want, kinds = self.revenues(monkeypatch, d, uniform_matroid(1, 1), 0.3, 5.0, 7, 4)
        assert kinds == [3, 3, 1]
        assert got == want

    def test_lb_family_wins(self, monkeypatch):
        # at 60 samples a trial the learned grids take 8 to 27 cells
        n, k, eps, budget, trials, seed = 3, 1, 0.01, 60, 30, 2
        monkeypatch.setattr("myersonlab.learn._TRIALS", 5)
        monkeypatch.setattr("myersonlab.auction._BLOCK", 130)  # 27 cells run lines, 12 fit two at a time
        kinds = []

        def spy(block, profiles):
            kinds.extend(kinds_of([block]))
            return _allocations(block, profiles)

        monkeypatch.setattr("myersonlab.lab._allocations", spy)

        def rows(mi, t, member):  # row t of member mi's stream of counts
            return as_samples(member, count_rows(member, budget, t + 1, seed, mi)[t])

        got = run_lb_family(n, k, eps, budget, trials, seed).metrics["avg_regret"]
        assert 0 in kinds and max(kinds) > 1
        assert got == oracles.lb_family_regret(n, k, eps, trials, rows)


class TestTrialLoopObjects:
    """A trial loop builds no prior or auction object for a trial whose auction fits a block's tables, so the
    objects a loop call builds do not grow with its trials."""

    @staticmethod
    def built(monkeypatch, run):
        counts = {"ValueDist": 0, "Auction": 0}

        def counted(name, real):
            def call(*args):
                counts[name] += 1
                return real(*args)
            return call

        with monkeypatch.context() as patch:
            patch.setattr(ValueDist, "__post_init__", counted("ValueDist", ValueDist.__post_init__))
            patch.setattr(Auction, "__init__", counted("Auction", Auction.__init__))
            run()
        return counts

    def test_sample_complexity(self, monkeypatch):
        d, fs = three_atom_pair(), uniform_matroid(2, 1)
        few, many = (self.built(monkeypatch, lambda t=t: run_sample_complexity(fs, d, 0.1, 0.1, 1.5, t, 3))
                     for t in (20, 400))
        assert few == many and few["Auction"] == 1  # opt_revenue's auction of the true prior

    def test_lb_family(self, monkeypatch):
        few, many = (self.built(monkeypatch, lambda t=t: run_lb_family(2, 1, 0.01, 1500, t, 3)) for t in (20, 400))
        assert few == many and few["Auction"] == 0


class TestTrialLoopMemory:
    """A trial loop holds one block of counts at a time, so its peak grows neither with the trials
    nor with the samples per trial."""

    BOUND = 12 * _BLOCK * 8  # bytes: a block drawn and learned takes about four times _BLOCK doubles

    @staticmethod
    def peak(run, trials):
        run(1)  # once-only allocations stay out of the measurement
        tracemalloc.start()
        try:
            run(trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("trials", [20, 400])
    def test_sample_complexity(self, trials):
        d = three_atom_pair()
        fs = uniform_matroid(2, 1)
        assert run_sample_complexity(fs, d, 0.1, 0.1, 1.5, 1, 3).metrics["samples_per_trial"] * d.n == 3180
        assert self.peak(lambda t: run_sample_complexity(fs, d, 0.1, 0.1, 1.5, t, 3), trials) < self.BOUND

    @pytest.mark.parametrize("C, count", [(1, 1060), (19, 20134)])
    def test_wide_prior(self, C, count):
        # 127 atoms a bidder: a block of 64 trials learned up to 16,256 atoms, peaking at 2.6-3.5 MB
        u = uniform_grid([(k + 1) / 128 for k in range(127)])
        d, fs = ProductDist((u, u)), uniform_matroid(2, 1)
        assert run_sample_complexity(fs, d, 0.1, 0.1, C, 1, 3).metrics["samples_per_trial"] == count
        assert self.peak(lambda t: run_sample_complexity(fs, d, 0.1, 0.1, C, t, 3), 64) < self.BOUND

    def test_sample_count_at_the_closeness_constant(self):
        # one trial of the ten-atom grid prior at C = 40 draws 213,908 samples per bidder, which as
        # values would take 6.8 MB; as counts a trial is 4 x 10 integers
        d = ProductDist((uniform_grid([round(0.1 * j, 10) for j in range(1, 11)]),) * 4)
        fs = uniform_matroid(4, 2)
        assert run_sample_complexity(fs, d, 0.1, 0.1, 40, 1, 3).metrics["samples_per_trial"] == 213908
        assert self.peak(lambda t: run_sample_complexity(fs, d, 0.1, 0.1, 40, t, 3), 1) < self.BOUND

    @pytest.mark.parametrize("trials", [20, 400])
    def test_lb_family(self, trials):
        # wins keeps an entry per distinct count of 0.0 per bidder, hundreds of them at 400 trials of
        # four members; keyed by the sorted samples, each entry would hold 1,500 x 2 doubles
        assert self.peak(lambda t: run_lb_family(2, 1, 0.01, 1500, t, 3), trials) < self.BOUND

    def test_draw_samples_writes_values_over_its_uniforms(self):
        # 7,950 rows of the three-atom pair: five trials of 1,590 x 2 samples, 25,440 doubles
        d, rows = three_atom_pair(), _BLOCK // 3180 * 1590
        assert rows == 7950
        assert self.peak(lambda count: draw_samples(d, count, 3), rows) < 2.5 * rows * d.n * 8


class TestSampleComplexity:
    def test_point_mass_prior_never_fails(self):
        d = ProductDist((point_mass(0.4), point_mass(0.8)))
        r = run_sample_complexity(uniform_matroid(2, 1), d, 0.1, 0.1, 1.0, 20, 0)
        assert r.metrics["failure_frequency"] == 0.0
        assert r.passed

    def test_setting_detection(self):
        d = ProductDist((point_mass(0.4), point_mass(0.8)))
        r1 = run_sample_complexity(uniform_matroid(2, 1), d, 0.1, 0.1, 1.0, 5, 0)
        r2 = run_sample_complexity(all_or_nothing(2, 1), d, 0.1, 0.1, 1.0, 5, 0)
        assert r1.params["setting"] == "downward_closed"
        assert r2.params["setting"] == "general"
        assert r2.metrics["samples_per_trial"] > r1.metrics["samples_per_trial"]

    def test_refuses_a_bidder_every_vertex_serves(self, monkeypatch):
        # refused before any auction is built: opt_revenue would raise CrossCheckError
        d = ProductDist((uniform_grid([0.5, 1.0]), uniform_grid([0.5, 1.0])))
        monkeypatch.setattr("myersonlab.lab.myerson", None)
        monkeypatch.setattr("myersonlab.lab._auctions", None)
        monkeypatch.setattr("myersonlab.lab.opt_revenue", None)
        with pytest.raises(PreconditionError, match="^every vertex serves bidder 0, even below"):
            run_sample_complexity(from_vertices([[1.0, 0.0]]), d, 0.1, 0.1, 1.0, 2, 0)

    def test_a_system_that_can_leave_each_bidder_out_is_taken(self):
        d = ProductDist((uniform_grid([0.5, 1.0]), uniform_grid([0.5, 1.0])))
        r = run_sample_complexity(from_vertices([[1.0, 0.0], [0.0, 1.0]]), d, 0.1, 0.1, 1.0, 2, 0)
        assert r.metrics["opt"] == pytest.approx(0.75, abs=1e-12)  # E[max virtual value], 1 at value 1

    def test_reports_are_reproducible(self):
        d = ProductDist((uniform_grid([0.2, 0.5, 1.0]),))
        fs = uniform_matroid(1, 1)
        a = run_sample_complexity(fs, d, 0.2, 0.2, 1.0, 30, 4)
        b = run_sample_complexity(fs, d, 0.2, 0.2, 1.0, 30, 4)
        assert a.to_json() == b.to_json()


class TestLbFamily:
    def test_metrics_and_bounds(self):
        r = run_lb_family(4, 2, 0.01, sample_budget=1, trials=10, seed=5)
        # gadget shift 48 eps / (nk) = 0.06
        assert r.metrics["hellinger_sq_bound"] == pytest.approx(2 * 0.06**2 * 4, abs=1e-15)
        assert r.metrics["hellinger_sq"] <= r.metrics["hellinger_sq_bound"]
        assert r.metrics["min_profile_prob"] >= 1 / (8 * 4)
        assert r.metrics["family_size"] == 16
        assert r.passed

    def test_uninformative_budget_forces_regret(self):
        r = run_lb_family(4, 2, 0.01, sample_budget=1, trials=10, seed=5)
        if r.metrics["budget_product"] <= 0.01:
            assert r.metrics["avg_regret"] >= 0.01

    def test_eps_cap(self):
        with pytest.raises(ValueError, match="1/100"):
            run_lb_family(4, 2, 0.02, 10, 5, 0)

    @pytest.mark.parametrize("eps", [-0.01, float("nan")])
    def test_negative_or_nan_eps(self, eps):
        # a negative shift swaps the two priors and the verdict reads pass
        with pytest.raises(ValueError, match="1/100"):
            run_lb_family(3, 1, eps, 1, 2, 0)

    def test_zero_eps_gives_one_prior(self):
        assert run_lb_family(3, 1, 0.0, 1, 2, 0).metrics["hellinger_sq"] == 0.0

    def test_one_bidder_rejected(self):
        with pytest.raises(ValueError, match="^at least two bidders required$"):
            run_lb_family(1, 1, 0.01, 1, 2, 0)

    def test_large_n_subsamples_family(self, monkeypatch):
        monkeypatch.setattr("myersonlab.lab._FAMILY_CAP", 8)
        r = run_lb_family(9, 4, 0.005, sample_budget=2, trials=2, seed=1)
        assert r.metrics["family_size"] == 8

    @pytest.mark.parametrize(
        "args, regret",
        [
            ((3, 1, 0.01, 40, 20, 5), "0x1.abe8c804cf138p-4"),
            ((2, 1, 0.01, 60, 20, 2), "0x1.5460aa64c2f85p-4"),
        ],
    )
    def test_regret_as_learned_per_trial(self, args, regret):
        # the oracle learns and auctions every trial's samples afresh; reusing an
        # auction for a trial whose counts differ in any bidder changes the regret
        n, k, eps, budget, trials, seed = args

        def spawned(mi, t, member):  # one stream per trial, as the regret was first frozen
            return oracles.draw_samples(member, budget, np.random.SeedSequence(seed, spawn_key=(mi, t)))

        def rows(mi, t, member):  # row t of member mi's stream of counts
            return as_samples(member, count_rows(member, budget, t + 1, seed, mi)[t])

        assert oracles.lb_family_regret(n, k, eps, trials, spawned) == float.fromhex(regret)
        want = oracles.lb_family_regret(n, k, eps, trials, rows)
        assert run_lb_family(*args).metrics["avg_regret"] == want


class TestOptRevenueLipschitzFuzz:
    """Dominated close pairs keep the optimal revenue within eps (downward-closed)."""

    def test_fuzz(self):
        from myersonlab.auction import opt_revenue

        rng = np.random.default_rng(13)
        done = 0
        while done < 80:
            n = int(rng.integers(1, 4))
            big, small = dominated_pair(rng, n, strength=0.25)
            fs = random_feasible(rng, n, families=("uniform", "minnon"))
            eps = min_closeness_eps(big, small, n, fs.rank) * (1 + 1e-9) + 1e-12
            if eps > 1.0:
                continue
            assert opt_revenue(small, fs) >= opt_revenue(big, fs) - eps - 1e-9
            done += 1
