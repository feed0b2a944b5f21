"""Acceptance suite: one check per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the verdict
lines on passing runs too).
"""

import ast
import time
from itertools import product as iproduct
from math import log, sqrt
from pathlib import Path

import numpy as np
import pytest

from myersonlab.auction import (
    allocate,
    expected_revenue,
    expected_virtual_welfare,
    myerson,
    opt_revenue,
    payments,
)
from myersonlab.dist import (
    ProductDist,
    discretize_uniform_with_atom,
    dominates,
    ironing_intervals,
    is_close,
    make_discrete,
    min_closeness_eps,
)
from myersonlab.feasible import all_or_nothing, uniform_matroid
from myersonlab.lab import (
    run_copies,
    run_lipschitz_lb,
    run_nonmonotone,
    run_sample_complexity,
)
from myersonlab.learn import dominated_empirical, draw_samples, hellinger_sq, required_samples

from fuzz import dominated_pair, random_feasible, random_product, uniform_grid
from test_learn import bernstein_radius, hellinger_sq_product

GRID10 = [round(0.1 * j, 10) for j in range(1, 11)]


def verdict(name, ok):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_c01_nonmonotonicity_gap():
    t0 = time.time()
    r = run_nonmonotone(0.1)
    eps = 0.1
    closed_design = (1 - eps) ** 2 * 0.5 + 2 * eps * (1 - eps) * (1 + eps) + eps**2 * 2 * eps
    ok = (
        abs(r.metrics["revenue_on_design_prior"] - closed_design) <= 1e-9
        and abs(r.metrics["revenue_on_design_prior"] - 0.605) <= 1e-9
        and abs(r.metrics["revenue_on_dominating"] - 2 * eps) <= 1e-9
        and time.time() - t0 < 1.0
    )
    assert verdict("C1 non-monotonicity gap", ok)


def test_c02_copies_corollary():
    t0 = time.time()
    r = run_copies(4)
    ok = (
        r.metrics["copies"] == 2
        and abs(r.metrics["gap"] - 0.810) <= 1e-9
        and time.time() - t0 < 5.0
    )
    assert verdict("C2 copies corollary", ok)


def test_c03_ironing_golden_case():
    d = discretize_uniform_with_atom(0.5, 0.2, 1e-3)
    intervals = ironing_intervals(d)
    lo_target, hi_target = (3 - sqrt(3)) / 5, 3 / 5
    ok = (
        len(intervals) == 1
        and abs(intervals[0][0] - lo_target) <= 2e-3
        and abs(intervals[0][1] - hi_target) <= 2e-3
    )
    assert verdict("C3 ironing golden case", ok)


def test_c04_myerson_identity_and_truthfulness():
    rng = np.random.default_rng(404)
    worst_gap = 0.0
    worst_util = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        d = random_product(rng, n)
        fs = random_feasible(rng, n)
        a = myerson(d, fs)
        worst_gap = max(worst_gap, abs(expected_revenue(a, d) - expected_virtual_welfare(a)))
        supports = [list(dj.support) for dj in d]
        for values in iproduct(*supports):
            x = allocate(a, values)
            pays = payments(a, values)
            for i in range(n):
                truthful = values[i] * x[i] - pays[i]
                for bid in supports[i]:
                    dev = values[:i] + (bid,) + values[i + 1 :]
                    util = values[i] * allocate(a, dev)[i] - payments(a, dev)[i]
                    worst_util = max(worst_util, util - truthful)
    ok = worst_gap <= 1e-9 and worst_util <= 1e-9
    assert verdict("C4 revenue identity and truthfulness", ok), (worst_gap, worst_util)


def test_c05_matroid_strong_monotonicity():
    t0 = time.time()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        big, small = dominated_pair(rng, n)
        fs = uniform_matroid(n, int(rng.integers(1, n + 1)))
        a = myerson(small, fs)
        worst = min(worst, expected_revenue(a, big) - expected_revenue(a, small))
    elapsed = time.time() - t0
    ok = worst >= -1e-9 and elapsed < 60.0
    assert verdict("C5 matroid strong monotonicity", ok), (worst, elapsed)


def test_c06_approx_monotonicity_and_opt_lipschitz():
    rng = np.random.default_rng(606)
    violations = 0
    done = 0
    while done < 200:
        n = int(rng.integers(1, 4))
        big, small = dominated_pair(rng, n, strength=0.25)
        fs = random_feasible(rng, n)
        eps = min_closeness_eps(big, small, n, fs.rank) * (1 + 1e-9) + 1e-12
        if eps > 1.0:
            continue
        a = myerson(small, fs)
        if expected_revenue(a, big) < expected_revenue(a, small) - eps - 1e-9:
            violations += 1
        done += 1
    done = 0
    while done < 200:
        n = int(rng.integers(1, 4))
        big, small = dominated_pair(rng, n, strength=0.25)
        fs = random_feasible(rng, n, families=("uniform", "minnon"))
        eps = min_closeness_eps(big, small, n, fs.rank) * (1 + 1e-9) + 1e-12
        if eps > 1.0:
            continue
        if opt_revenue(small, fs) < opt_revenue(big, fs) - eps - 1e-9:
            violations += 1
        done += 1
    ok = violations == 0
    assert verdict("C6 approximate monotonicity and optimal-revenue lipschitzness", ok)


def test_c07_lipschitz_lower_bound_grid():
    ok = True
    for n in (2, 4):
        for k in (1, 2):
            for eps in (0.01, 0.005):
                r = run_lipschitz_lb(n, k, eps)
                ok &= r.passed
                ok &= r.metrics["difference"] >= eps * sqrt(k) / 8 - 1e-12
                ok &= abs(r.metrics["difference"] - r.metrics["closed_form_difference"]) <= 1e-12
    assert verdict("C7 lipschitz lower bound grid", ok)


def test_c08_bernstein_quadratic_condition():
    violations = 0
    for mean in np.linspace(0.0, 1.0, 10):
        for count in (10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000, 300000):
            for delta in np.linspace(0.005, 0.5, 10):
                t = bernstein_radius(float(mean), count, float(delta))
                rhs = (2 * mean * (1 - mean) + (2 / 3) * t) * log(2 / delta) / count
                if t * t < rhs:
                    violations += 1
    ok = violations == 0
    assert verdict("C8 bernstein quadratic condition", ok), violations


def test_c09_dominated_empirical_close_event():
    """Dominance and closeness of the learned prior at the pinned constant C=4.

    This check is expected to fail: at C=4 the inflation applied to the
    empirical CDF (its additive floor alone is 4 ln(2nN/delta)/N, about
    1.1e-2 at N=4239) provably exceeds the closeness allowance
    eps^2/(2nk) = 2.5e-3 at every checkpoint below the support, so the
    closeness event has probability zero. The companion check in
    test_learn.py shows the same event holds w.h.p. once the constant is
    large enough (C=64). Kept at the pinned constant for honest reporting.
    """
    eps = delta = 0.1
    n, k = 2, 1
    count = required_samples("downward_closed", n, k, eps, delta, 4)
    prior = ProductDist(tuple(uniform_grid(GRID10) for _ in range(n)))
    trials, hits = 500, 0
    for t in range(trials):
        s = draw_samples(prior, count, np.random.SeedSequence(909, spawn_key=(t,)))
        learned = dominated_empirical(s, delta)
        hits += dominates(prior, learned) and is_close(prior, learned, eps, n, k)
    sigma = sqrt(0.9 * 0.1 / trials)
    ok = hits / trials >= 0.9 - 3 * sigma
    assert verdict("C9 dominated-empirical closeness event at C=4", ok), (
        f"event frequency {hits / trials:.3f} < {0.9 - 3 * sigma:.3f}: the pinned "
        f"constant C=4 gives N={count}, where the inflation radius exceeds the "
        f"closeness allowance deterministically (see decision ledger); the same "
        f"event passes at C=64 (test_learn.py::TestDominatedEmpirical::"
        f"test_closeness_event_at_large_constant)"
    )


def test_c10_sample_complexity_trials():
    t0 = time.time()
    prior = ProductDist(tuple(uniform_grid(GRID10) for _ in range(2)))
    r1 = run_sample_complexity(uniform_matroid(2, 1), prior, 0.1, 0.1, 2.0, 200, 1010)
    r2 = run_sample_complexity(all_or_nothing(2, 1), prior, 0.1, 0.1, 2.0, 200, 1011)
    elapsed = time.time() - t0
    ok = r1.passed and r2.passed and elapsed < 600.0
    assert verdict("C10 sample complexity trials", ok), (r1.metrics, r2.metrics, elapsed)


def test_c11_hellinger_machinery():
    ok = True
    for n in (2, 4, 8):
        for k in (1, 2):
            for eps in (0.01, 0.005):
                shift = 48 * eps / (n * k)
                if shift >= 1 / n:
                    continue
                dplus = make_discrete([0.0, 1.0], [1 / n - shift, 1 - 1 / n + shift])
                dminus = make_discrete([0.0, 1.0], [1 / n + shift, 1 - 1 / n - shift])
                ok &= hellinger_sq(dplus, dminus) <= 2 * shift**2 * n
    rng = np.random.default_rng(1111)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        ps, qs = [], []
        for _ in range(n):
            support = sorted(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], 3, replace=False))
            w1 = rng.integers(1, 9, 3).astype(float)
            w2 = rng.integers(1, 9, 3).astype(float)
            ps.append(make_discrete(support, w1 / w1.sum()))
            qs.append(make_discrete(support, w2 / w2.sum()))
        p, q = ProductDist(tuple(ps)), ProductDist(tuple(qs))
        coord_sum = sum(hellinger_sq(a, b) for a, b in zip(ps, qs))
        ok &= hellinger_sq_product(p, q) <= coord_sum + 1e-12
    assert verdict("C11 hellinger machinery", ok)


def test_source_stays_within_the_line_budget():
    # the package's line budget for this round; counted as `wc -l src/myersonlab/*.py` counts
    src = Path(__file__).resolve().parents[1] / "src" / "myersonlab"
    lines = sum(p.read_bytes().count(b"\n") for p in src.glob("*.py"))
    assert lines <= 1920, f"src/myersonlab has {lines} lines, over the budget of 1,920"


def _code_reads(statements) -> set[str]:
    """Names the statements read as code: loaded names, attribute names and
    names imported with `from`; docstrings, comments and other strings do not count."""
    names = set()
    for node in (n for s in statements for n in ast.walk(s)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _package_readers():
    """Each module of the package by name with its parsed body, and the names bench/ reads."""
    root = Path(__file__).resolve().parents[1]
    modules = {
        p.stem: ast.parse(p.read_text(encoding="utf-8")).body
        for p in (root / "src" / "myersonlab").glob("*.py")
    }
    bench = _code_reads(
        ast.parse(p.read_text(encoding="utf-8")) for p in (root / "bench").glob("*.py")
    )
    return modules, bench


def _read_outside(module, modules, bench) -> set[str]:
    """Names read by bench/ or by a module other than this one and __init__."""
    others = [body for m, body in modules.items() if m not in ("__init__", module)]
    return bench | _code_reads(s for body in others for s in body)


def test_every_export_has_a_reader():
    # a name the package exports must be read by the benchmark or by another
    # module of the package: one that only tests read belongs with the tests
    modules, bench = _package_readers()
    unread = []
    for node in modules["__init__"]:
        if not isinstance(node, ast.ImportFrom):
            continue
        outside = _read_outside(node.module, modules, bench)
        unread += [f"{node.module}.{a.name}" for a in node.names if a.name not in outside]
    assert not unread, f"exported, but read by neither bench/ nor another module: {unread}"


def test_every_module_level_name_has_a_reader():
    # each module-level function, class and assigned name is read by the
    # code of its own module beyond its definition, of another module, or of bench/
    modules, bench = _package_readers()
    unread = []
    for module, body in modules.items():
        if module == "__init__":
            continue
        outside = _read_outside(module, modules, bench)
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = _code_reads(s for s in body if s is not stmt)
            unread += [
                f"{module}.{name}"
                for name in defined
                if not (name.startswith("__") and name.endswith("__")) and name not in outside | own
            ]
    assert not unread, f"defined, but read by no code outside its definition: {unread}"
