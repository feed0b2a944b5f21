"""Experiment harness: counterexample constructions, inequality checks, and sample-complexity
trials, each emitting a machine-readable report. The monotonicity reports share two revenue metrics
(_revenues); the constructions add their gap and strict-drop verdict (_drop), approx-monotone its slack.

Every experiment is deterministic given its inputs and seed. Trial t of a trial loop learns from
row t of its count stream, learn._trial_counts(d, count, trials, seed, *key), whatever the number of
trials, so any trial is replayed from its seed, key and t. The loops build the auctions of a block of
counts' learned priors in blocks (auction._auctions); the other experiments call myerson.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import product as iproduct
from math import prod, sqrt

import numpy as np

from .auction import _auctions, allocate, expected_revenue, myerson, opt_revenue
from .dist import (
    ProductDist,
    dominates,
    is_close,
    is_close_uniform,
    make_discrete,
    point_mass,
)
from .feasible import (
    FeasibleSet,
    _exchange_violation,
    all_or_nothing,
    is_downward_closed,
    masks,
    minimum_non_matroid,
)
from .learn import _learn_counts, _trial_counts, hellinger_sq, required_samples

VERDICT_TOL = 1e-9
_LEARNER_DELTA = 0.1  # delta of the dominated-empirical learner in lb-family
_FAMILY_CAP = 32  # lb-family members drawn at random past n = 8
EMBED_MAX_N = 10  # most bidders embed_counterexample takes


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


def _report(experiment, params, metrics, ok, seed=None) -> Report:
    return Report(experiment, params, metrics, "pass" if ok else "fail", seed)


def _revenues(dtilde: ProductDist, d: ProductDist, fs: FeasibleSet) -> dict:
    """The revenue metrics, in this order: the design-prior auction's exact revenue on dtilde and on d."""
    a = myerson(dtilde, fs)
    return {
        "revenue_on_design_prior": expected_revenue(a, dtilde),
        "revenue_on_dominating": expected_revenue(a, d),
    }


def _drop(experiment: str, params: dict, dtilde, d, fs, **metrics) -> Report:
    """A construction's report: its metrics, the revenues and their gap; it passes if revenue drops."""
    revenues = _revenues(dtilde, d, fs)
    on_design, on_dominating = revenues.values()
    metrics.update(revenues, gap=on_design - on_dominating)
    return _report(experiment, params, metrics, on_dominating < on_design)


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
    dtilde = ProductDist((point_mass(0.5), bc, bc))
    d = ProductDist((point_mass(0.5), point_mass(1.0), point_mass(1.0)))
    return dtilde, d, minimum_non_matroid()


def run_nonmonotone(eps: float = 0.1) -> Report:
    """Exact revenues of the design-prior auction on both priors, and their gap."""
    return _drop("nonmonotone", {"eps": eps}, *nonmonotone_gadget(eps))


def run_copies(k: int) -> Report:
    """floor(k/2) independent gadget copies side by side; the revenue gap adds up.

    Myerson's auction over a disjoint union of parts with independent priors
    splits by part when every part holds the zero vertex: welfare, the tie
    order (descending total, then lexicographic) and the cell-0 rule all
    split, and each threshold payment depends only on its own part. The
    gadget's system holds the empty set, so each metric is copies times
    that of the one gadget's report, exactly, at every k.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    copies = k // 2
    gadget = run_nonmonotone(0.1).metrics
    return _report(
        "copies",
        {"k": k, "eps": 0.1},
        {"copies": copies, **{name: copies * value for name, value in gadget.items()}},
        gadget["gap"] >= 0.405 - VERDICT_TOL,
    )


def embed_counterexample(fs: FeasibleSet, eps: float = 0.1) -> Report:
    """Embed the three-bidder gadget into any downward-closed non-matroid.

    The violating pair with maximal intersection pins bidders A, B, C; the
    intersection bidders sit at value 1, bystanders inside the pair at 1/n,
    and the gadget itself is scaled by 1/n. Everyone else is at 0 but for a
    1% atom at eps/(10n), which makes their ironed virtual value at 0
    negative, so they never tie with the low values of B and C. The
    report adds the witness pair and its intersection size to the
    revenues and their gap.
    """
    if not 0.0 < eps < 1.0:  # also catches NaN
        raise ValueError(f"eps {eps!r} outside (0, 1)")
    if masks(fs.vertices) is None:
        raise PreconditionError("embedding needs a binary set system")
    if fs.n > EMBED_MAX_N:
        raise PreconditionError(f"embedding limited to n <= {EMBED_MAX_N}")
    if not is_downward_closed(fs):
        raise PreconditionError("embedding needs a downward-closed system")
    witness = _exchange_violation(fs)
    if witness is None:
        raise PreconditionError("system is a matroid; nothing to embed")
    s_big, s_small = witness
    inter = set(s_big) & set(s_small)
    side_a = sorted(set(s_small) - set(s_big))
    side_bc = sorted(set(s_big) - set(s_small))
    n = fs.n
    scale = 1.0 / n
    bc_tilde = make_discrete([eps * scale, scale], [1.0 - eps, eps])
    outsider = make_discrete([0.0, 0.1 * eps * scale], [0.99, 0.01])
    parts = []  # each bidder's coordinates of the design and the dominating prior
    for i in range(n):
        if i in inter:
            lo = hi = point_mass(1.0)
        elif i == side_a[0]:
            lo = hi = point_mass(0.5 * scale)
        elif i in side_bc[:2]:
            lo, hi = bc_tilde, point_mass(scale)
        elif i in side_a or i in side_bc:
            lo = hi = point_mass(scale)
        else:
            lo = hi = outsider
        parts.append((lo, hi))
    dtilde, d = map(ProductDist, zip(*parts))
    return _drop(
        "embed",
        {"eps": eps, "n": n},
        dtilde,
        d,
        fs,
        violating_set=list(s_big),
        violating_smaller_set=list(s_small),
        intersection_size=len(inter),
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
    """Dominating prior loses at most the closeness slack; the report holds both revenues and the slack."""
    if dd.n != fs.n or dtilde.n != fs.n:
        raise ValueError("distribution and system dimensions disagree")
    n, k = fs.n, fs.rank
    _require_dominated_close(dd, dtilde, eps, n, k, uniform)
    slack = sqrt(n / k) * eps if uniform else eps
    revenues = _revenues(dtilde, dd, fs)
    on_design, on_dominating = revenues.values()
    return _report(
        "approx-monotone",
        {"eps": eps, "n": n, "k": k, "uniform": uniform},
        {**revenues, "slack": slack},
        on_dominating >= on_design - slack - VERDICT_TOL,
    )


def lipschitz_pair(n: int, k: int, eps: float) -> tuple[ProductDist, ProductDist]:
    """Binary i.i.d. priors whose optimal revenues split by about eps sqrt(k)/8."""
    if not 1 <= k <= n:
        raise ValueError(f"rank k={k} outside 1..{n}")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps {eps!r} outside [0, 1]")
    lo = 1.0 / (2.0 * n)
    shift = eps / (4.0 * n * sqrt(k))
    d = make_discrete([0.0, 1.0], [lo, 1.0 - lo])
    dtilde = make_discrete([0.0, 1.0], [lo - shift, 1.0 - lo + shift])
    return ProductDist((d,) * n), ProductDist((dtilde,) * n)


def run_lipschitz_lb(n: int, k: int, eps: float) -> Report:
    """Close pair without dominance whose optimal revenues differ by eps sqrt(k)/8."""
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
    one. A system in which every vertex serves some bidder is refused.
    """
    for i in np.flatnonzero((fs.vertices > 0.0).all(axis=0)).tolist():
        raise PreconditionError(f"every vertex serves bidder {i}, even below its lowest value, where it "
                                f"pays nothing; sample-complexity needs a system that can leave it out")
    closed = masks(fs.vertices) is not None and is_downward_closed(fs)
    setting = "downward_closed" if closed else "general"
    count = required_samples(setting, fs.n, fs.rank, eps, delta, C)
    learned = (_learn_counts(d, counts, delta) for counts in _trial_counts(d, count, trials, seed))
    opt = opt_revenue(d, fs)
    failures = sum(expected_revenue(a, d) < opt - eps for priors in learned for a in _auctions(priors, fs))
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
) -> Report:
    """Indistinguishable prior family on the all-or-nothing system.

    Two near-identical binary priors force any low-budget learner to make
    the same call on the profile where exactly one bidder bids 0, which
    costs virtual welfare on half the family. The verdict is informational:
    it asks that a budget small enough to be uninformative (N * H^2 at most
    0.01) indeed leaves average regret of at least eps.
    """
    if not 0.0 <= eps <= 0.01:  # also catches NaN
        raise ValueError(f"eps {eps!r} outside [0, 1/100]")
    if n < 2:
        raise ValueError("at least two bidders required")
    fs = all_or_nothing(n, k)
    shift = 48.0 * eps / (n * k)
    base = 1.0 / n
    dplus = make_discrete([0.0, 1.0], [base - shift, 1.0 - base + shift])
    dminus = make_discrete([0.0, 1.0], [base + shift, 1.0 - base - shift])
    priors = (dminus, dplus)  # by sign; each has atoms at 0 and at 1
    phis = [d._slopes.tolist() for d in priors]  # the ironed virtual values at 0 and at 1
    masses = [d.probs.tolist() for d in priors]  # and the masses there, as floats
    h2 = hellinger_sq(dplus, dminus)
    budget_product = sample_budget * h2
    rng = np.random.default_rng(seed)
    if n <= 8:
        signs = list(iproduct((0, 1), repeat=n))
    else:
        signs = [tuple(int(b) for b in rng.integers(0, 2, size=n)) for _ in range(_FAMILY_CAP)]
    profiles = [tuple(0.0 if j == i else 1.0 for j in range(n)) for i in range(n)]
    wins: dict[bytes, list[bool]] = {}  # a trial's counts at 0 and 1 -> bidder i wins at profiles[i]
    total_regret = 0.0
    min_profile_prob = 1.0
    for mi, sign in enumerate(signs):
        member = ProductDist(tuple(priors[b] for b in sign))
        vw_all = [(k / n) * sum(phis[b][j != i] for j, b in enumerate(sign)) for i in range(n)]
        dif_sums = [0.0] * n
        for counts in _trial_counts(member, sample_budget, trials, seed, mi):
            keys = [c.tobytes() for c in counts]
            new = {key: t for t, key in enumerate(keys) if key not in wins}  # a trial per new key
            if new:  # no learner call for a block of counts already met
                learned = _learn_counts(member, counts[list(new.values())], _LEARNER_DELTA)
                for key, a in zip(new, _auctions(learned, fs)):
                    wins[key] = [allocate(a, p)[i] > 0.0 for i, p in enumerate(profiles)]
            for key in keys:
                for i in range(n):
                    dif_sums[i] += max(0.0, vw_all[i]) - (vw_all[i] if wins[key][i] else 0.0)
        member_regret = 0.0
        for i in range(n):
            prob = prod(masses[b][j != i] for j, b in enumerate(sign))
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
