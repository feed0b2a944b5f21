"""Experiment harness: counterexample constructions, inequality checks, and
sample-complexity trials, each emitting a machine-readable report.

Every experiment is deterministic given its inputs and seed; trial-level
randomness is derived from (seed, trial index) so reports are reproducible.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from itertools import product as iproduct
from math import sqrt

import numpy as np

from .auction import allocate, expected_revenue, myerson, opt_revenue
from .curves import NEG_INF, ironing_intervals, revenue_curve, virtual_table
from .dist import (
    ProductDist,
    ValueDist,
    dominates,
    is_close,
    is_close_uniform,
    make_discrete,
    point_mass,
    product_dist,
    value_of_quantile,
)
from .feasible import (
    FeasibleSet,
    _exchange_violation,
    all_or_nothing,
    is_downward_closed,
    minimum_non_matroid,
)
from .learn import dominated_empirical, draw_samples, hellinger_sq, required_samples

VERDICT_TOL = 1e-9


class PreconditionError(ValueError):
    """An experiment's stated precondition does not hold for the inputs."""


@dataclass(frozen=True)
class Report:
    """Outcome of one experiment: parameters, metrics, and a pass/fail verdict.

    The verdict is a pure function of the metrics and declared tolerances.
    """

    experiment: str
    params: dict
    metrics: dict
    verdict: str
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return asdict(self)

    def json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    def csv_rows(self) -> list[str]:
        """One CSV line per metric: experiment, params, metric, value, verdict."""
        par = ";".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        rows = []
        for name, value in sorted(self.metrics.items()):
            line = io.StringIO()
            csv.writer(line, lineterminator="").writerow(
                [self.experiment, par, name, repr(value), self.verdict]
            )
            rows.append(line.getvalue())
        return rows


def _report(experiment, params, metrics, ok, seed=None) -> Report:
    return Report(experiment, params, metrics, "pass" if ok else "fail", seed)


def _revenues(dtilde: ProductDist, d: ProductDist, fs: FeasibleSet) -> tuple[float, float]:
    """Exact revenue of the design-prior auction on the design prior and on d."""
    a = myerson(dtilde, fs)
    return expected_revenue(a, dtilde), expected_revenue(a, d)


# ---------------------------------------------------------------------------
# counterexample constructions


def nonmonotone_gadget(eps: float) -> tuple[ProductDist, ProductDist, FeasibleSet]:
    """Design prior, dominating prior, and system of the rank-2 counterexample.

    Bidder A is a point mass at 1/2; B and C are 1 with probability eps and
    eps otherwise in the design prior, and deterministically 1 in the
    dominating prior. Feasibility: A alone, or any subset of {B, C}.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"gadget parameter {eps!r} outside (0, 0.5)")
    bc = make_discrete([eps, 1.0], [1.0 - eps, eps])
    dtilde = product_dist(point_mass(0.5), bc, bc)
    d = product_dist(point_mass(0.5), point_mass(1.0), point_mass(1.0))
    return dtilde, d, minimum_non_matroid()


def run_nonmonotone(eps: float = 0.1) -> Report:
    """Exact revenues of the design-prior auction on both priors."""
    on_design, on_dominating = _revenues(*nonmonotone_gadget(eps))
    return _report(
        "nonmonotone",
        {"eps": eps},
        {
            "revenue_on_design_prior": on_design,
            "revenue_on_dominating": on_dominating,
            "gap": on_design - on_dominating,
        },
        on_dominating < on_design,
    )


def run_copies(k: int) -> Report:
    """floor(k/2) independent gadget copies side by side; the revenue gap adds up.

    Myerson's auction over a disjoint union of parts with independent priors
    splits by part when every part holds the zero vertex: welfare, the tie
    order (descending total, then lexicographic) and the cell-0 rule all
    split, and each threshold payment depends only on its own part. The
    gadget's system holds the empty set, so each revenue is copies times
    that of the one gadget auction, exactly, at every k.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    copies = k // 2
    eps = 0.1
    on_design, on_dominating = _revenues(*nonmonotone_gadget(eps))
    gap = on_design - on_dominating
    return _report(
        "copies",
        {"k": k, "eps": eps},
        {
            "copies": copies,
            "revenue_on_design_prior": copies * on_design,
            "revenue_on_dominating": copies * on_dominating,
            "gap": copies * gap,
        },
        gap >= 0.405 - VERDICT_TOL,
    )


def embed_counterexample(fs: FeasibleSet, eps: float = 0.1) -> Report:
    """Embed the three-bidder gadget into any downward-closed non-matroid.

    The violating pair with maximal intersection pins bidders A, B, C; the
    intersection bidders sit at value 1, bystanders inside the pair at 1/n,
    and the gadget itself is scaled by 1/n. Everyone else is at 0 but for a
    1% atom at eps/(10n), which makes their ironed virtual value at 0
    negative, so they never tie with the low values of B and C.
    """
    if fs.sets_view is None:
        raise PreconditionError("embedding needs a binary set system")
    if fs.n > 10:
        raise PreconditionError("embedding limited to n <= 10")
    if not is_downward_closed(fs):
        raise PreconditionError("embedding needs a downward-closed system")
    witness = _exchange_violation(fs)
    if witness is None:
        raise PreconditionError("system is a matroid; nothing to embed")
    s_big, s_small = witness
    inter = set(s_big) & set(s_small)
    side_a = sorted(set(s_small) - set(s_big))
    side_bc = sorted(set(s_big) - set(s_small))
    a_bidder = side_a[0]
    b_bidder, c_bidder = side_bc[0], side_bc[1]
    n = fs.n
    scale = 1.0 / n
    bc_tilde = make_discrete([eps * scale, scale], [1.0 - eps, eps])
    outsider = make_discrete([0.0, 0.1 * eps * scale], [0.99, 0.01])
    tilde_parts: list[ValueDist] = []
    big_parts: list[ValueDist] = []
    for i in range(n):
        if i in inter:
            lo = hi = point_mass(1.0)
        elif i == a_bidder:
            lo = hi = point_mass(0.5 * scale)
        elif i in (b_bidder, c_bidder):
            lo, hi = bc_tilde, point_mass(scale)
        elif i in side_a or i in side_bc:
            lo = hi = point_mass(scale)
        else:
            lo = hi = outsider
        tilde_parts.append(lo)
        big_parts.append(hi)
    dtilde = ProductDist(tuple(tilde_parts))
    d = ProductDist(tuple(big_parts))
    on_design, on_dominating = _revenues(dtilde, d, fs)
    return _report(
        "embed",
        {"eps": eps, "n": n},
        {
            "violating_set": list(s_big),
            "violating_smaller_set": list(s_small),
            "intersection_size": len(inter),
            "revenue_on_design_prior": on_design,
            "revenue_on_dominating": on_dominating,
            "gap": on_design - on_dominating,
        },
        on_dominating < on_design,
    )


# ---------------------------------------------------------------------------
# inequality checks


def _require_dominated_close(dd, dtilde, eps, n, k, uniform) -> None:
    """Raise PreconditionError unless dd dominates dtilde and is eps-close to it."""
    if not dominates(dd, dtilde):
        raise PreconditionError("dominance precondition fails")
    close = is_close_uniform if uniform else is_close
    if not close(dd, dtilde, eps, n, k):
        kind = "uniform closeness" if uniform else "closeness"
        raise PreconditionError(f"{kind} fails at eps={eps!r}")


def check_approx_monotone(
    dd: ProductDist,
    dtilde: ProductDist,
    eps: float,
    fs: FeasibleSet,
    uniform: bool = False,
) -> Report:
    """Dominating prior loses at most the closeness slack against the design prior."""
    if dd.n != fs.n or dtilde.n != fs.n:
        raise ValueError("distribution and system dimensions disagree")
    n, k = fs.n, fs.rank
    _require_dominated_close(dd, dtilde, eps, n, k, uniform)
    slack = sqrt(n / k) * eps if uniform else eps
    on_design, on_dominating = _revenues(dtilde, dd, fs)
    return _report(
        "approx-monotone",
        {"eps": eps, "n": n, "k": k, "uniform": uniform},
        {
            "revenue_on_design_prior": on_design,
            "revenue_on_dominating": on_dominating,
            "slack": slack,
        },
        on_dominating >= on_design - slack - VERDICT_TOL,
    )


def _quantile_segments(d: ValueDist) -> list[tuple[float, float, float]]:
    """Partition of [0, 1) into (q_lo, q_hi, value) runs of the quantile-to-value map."""
    tails = d._above
    return [(tails[j + 1], tails[j], d.support[j]) for j in range(len(d.support) - 1, -1, -1)]


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
    table = virtual_table(dtilde[i])
    phi_at_theta = table.at(value_of_quantile(dd[i], theta))
    if phi_at_theta is NEG_INF or phi_at_theta < 0.0:
        raise PreconditionError("virtual value at the threshold quantile is negative")
    lhs = 0.0
    for q_lo, q_hi, value in _quantile_segments(dd[i]):
        width = min(theta, q_hi) - q_lo
        if width <= 0.0:
            continue
        phi = table.at(value)
        if phi is NEG_INF:
            raise PreconditionError("virtual value sentinel inside the integration range")
        lhs += phi * width
    rhs = revenue_curve(dd[i]).value_at(theta) + slack
    return _report(
        "single-bidder-bound",
        {"eps": eps, "n": n, "k": k, "bidder": i, "theta": theta, "uniform": uniform},
        {"lhs": lhs, "rhs": rhs},
        lhs <= rhs + VERDICT_TOL,
    )


def lipschitz_pair(n: int, k: int, eps: float) -> tuple[ProductDist, ProductDist]:
    """Binary i.i.d. priors whose optimal revenues split by about eps sqrt(k)/8."""
    lo = 1.0 / (2.0 * n)
    shift = eps / (4.0 * n * sqrt(k))
    d = ProductDist(tuple(make_discrete([0.0, 1.0], [lo, 1.0 - lo]) for _ in range(n)))
    dtilde = ProductDist(
        tuple(make_discrete([0.0, 1.0], [lo - shift, 1.0 - lo + shift]) for _ in range(n))
    )
    return d, dtilde


def run_lipschitz_lb(n: int, k: int, eps: float) -> Report:
    """Close pair without dominance whose optimal revenues differ by eps sqrt(k)/8."""
    if not 1 <= k <= n:
        raise ValueError(f"rank k={k} outside 1..{n}")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps {eps!r} outside [0, 1]")
    d, dtilde = lipschitz_pair(n, k, eps)
    fs = all_or_nothing(n, k)
    opt_d = opt_revenue(d, fs)
    opt_dt = opt_revenue(dtilde, fs)
    diff = opt_dt - opt_d
    closed_form = k * (1.0 - 1.0 / (2 * n)) ** n * (
        (1.0 + eps / (2.0 * (2 * n - 1) * sqrt(k))) ** n - 1.0
    )
    close_ok = eps == 0.0 or is_close(d, dtilde, eps, n, k)
    bound = eps * sqrt(k) / 8.0
    return _report(
        "lipschitz-lb",
        {"n": n, "k": k, "eps": eps},
        {
            "opt_on_smaller": opt_d,
            "opt_on_larger": opt_dt,
            "difference": diff,
            "closed_form_difference": closed_form,
            "bound": bound,
            "close": close_ok,
        },
        diff >= bound - 1e-12 and close_ok,
    )


# ---------------------------------------------------------------------------
# sample-complexity experiments


def run_sample_complexity(
    fs: FeasibleSet,
    d: ProductDist,
    eps: float,
    delta: float,
    C: float,
    trials: int,
    seed: int,
) -> Report:
    """Failure frequency of the dominated-empirical auction across seeded trials.

    A trial fails when the learned auction's exact revenue on the true
    prior falls more than eps below the optimum. The sample count follows
    the downward-closed formula when the system qualifies, else the general
    one.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    setting = (
        "downward_closed"
        if fs.sets_view is not None and is_downward_closed(fs)
        else "general"
    )
    count = required_samples(setting, fs.n, fs.rank, eps, delta, C)
    opt = opt_revenue(d, fs)
    failures = 0
    for t in range(trials):
        ss = np.random.SeedSequence(seed, spawn_key=(t,))
        samples = draw_samples(d, count, ss)
        learned = dominated_empirical(samples, delta)
        a = myerson(learned, fs)
        if expected_revenue(a, d) < opt - eps:
            failures += 1
    freq = failures / trials
    sigma = sqrt(delta * (1.0 - delta) / trials)
    return _report(
        "sample-complexity",
        {"setting": setting, "n": fs.n, "k": fs.rank, "eps": eps, "delta": delta, "C": C, "trials": trials},
        {
            "samples_per_trial": count,
            "opt": opt,
            "failure_frequency": freq,
            "threshold": delta + 3.0 * sigma,
        },
        freq <= delta + 3.0 * sigma,
        seed,
    )


def run_lb_family(
    n: int,
    k: int,
    eps: float,
    sample_budget: int,
    trials: int,
    seed: int,
    learner_delta: float = 0.1,
    family_cap: int = 32,
) -> Report:
    """Indistinguishable prior family on the all-or-nothing system.

    Two near-identical binary priors force any low-budget learner to make
    the same call on the profile where exactly one bidder bids 0, which
    costs virtual welfare on half the family. The verdict is informational:
    it asks that a budget small enough to be uninformative (N * H^2 at most
    0.01) indeed leaves average regret of at least eps.
    """
    if eps > 0.01:
        raise ValueError("eps above 1/100")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if n < 2:
        raise ValueError("at least two bidders required")
    shift = 48.0 * eps / (n * k)
    base = 1.0 / n
    dplus = make_discrete([0.0, 1.0], [base - shift, 1.0 - base + shift])
    dminus = make_discrete([0.0, 1.0], [base + shift, 1.0 - base - shift])
    h2 = hellinger_sq(dplus, dminus)
    budget_product = sample_budget * h2
    fs = all_or_nothing(n, k)
    rng = np.random.default_rng(seed)
    if n <= 8:
        signs = list(iproduct((0, 1), repeat=n))
    else:
        signs = [tuple(int(b) for b in rng.integers(0, 2, size=n)) for _ in range(family_cap)]
    profiles = [tuple(0.0 if j == i else 1.0 for j in range(n)) for i in range(n)]
    wins: dict[bytes, list[bool]] = {}  # sorted sample columns -> bidder i wins at profiles[i]
    total_regret = 0.0
    min_profile_prob = 1.0
    for mi, sign in enumerate(signs):
        member = ProductDist(tuple(dplus if b else dminus for b in sign))
        tables = [virtual_table(dj) for dj in member]
        phi_one = [t.at(1.0) for t in tables]
        phi_zero = [t.at(0.0) for t in tables]
        vw_all = [
            (k / n) * sum(phi_zero[j] if j == i else phi_one[j] for j in range(n))
            for i in range(n)
        ]
        dif_sums = [0.0] * n
        for t in range(trials):
            ss = np.random.SeedSequence(seed, spawn_key=(mi, t))
            samples = draw_samples(member, sample_budget, ss)
            key = np.sort(samples.values, axis=0).tobytes()
            if key not in wins:
                a = myerson(dominated_empirical(samples, learner_delta), fs)
                wins[key] = [allocate(a, p)[i] > 0.0 for i, p in enumerate(profiles)]
            for i in range(n):
                dif_sums[i] += max(0.0, vw_all[i]) - (vw_all[i] if wins[key][i] else 0.0)
        member_regret = 0.0
        for i in range(n):
            prob = 1.0
            for j in range(n):
                pj = dict(zip(member[j].support, member[j].probs))
                prob *= pj.get(0.0, 0.0) if j == i else pj.get(1.0, 0.0)
            min_profile_prob = min(min_profile_prob, prob)
            member_regret += prob * dif_sums[i] / trials
        total_regret += member_regret
    avg_regret = total_regret / len(signs)
    informative = budget_product <= 0.01
    return _report(
        "lb-family",
        {"n": n, "k": k, "eps": eps, "sample_budget": sample_budget, "trials": trials},
        {
            "hellinger_sq": h2,
            "hellinger_sq_bound": 2.0 * shift * shift * n,
            "budget_product": budget_product,
            "avg_regret": avg_regret,
            "min_profile_prob": min_profile_prob,
            "family_size": len(signs),
        },
        (not informative) or avg_regret >= eps,
        seed,
    )
