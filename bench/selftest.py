#!/usr/bin/env python3
"""Checks of the benchmark's reference computations against hand-computed cases.

    python3 bench/selftest.py

Exits 0 when every case holds. Imports numpy and reference.py only.
"""

from __future__ import annotations

import sys
from math import log, sqrt

import numpy as np

import reference as ref

CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def near(a, b, tol=1e-12) -> bool:
    return bool(np.all(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) <= tol))


def gadget(eps: float):
    """Rank-2 counterexample: A is 1/2 for sure; B and C are 1 w.p. eps, else eps."""
    bc = (np.array([eps, 1.0]), np.array([1.0 - eps, eps]))
    return [(np.array([0.5]), np.array([1.0])), bc, bc]


@case
def gadget_optimal_revenue():
    # A alone earns 1/2; {B, C} earns phi_B + phi_C with phi(1) = 1, phi(eps) = 0
    nmm = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)]
    for eps in (0.1, 0.2, 0.35):
        assert near(ref.optimal_revenue(gadget(eps), nmm), 0.5 * (1 - eps) ** 2 + 2 * eps), eps


@case
def gadget_bidders_sold_separately():
    # B and C each sold alone: the best price earns eps (price 1 or price eps)
    both = [(0, 0), (1, 0), (0, 1), (1, 1)]
    for eps in (0.1, 0.2):
        assert near(ref.optimal_revenue(gadget(eps)[1:], both), 2 * eps), eps
        assert near(ref.ironed_virtual_values(*gadget(eps)[1]), [0.0, 1.0]), eps


@case
def ironing_flattens_a_dip():
    # curve (0,0) (0.2,0.2) (0.5,0.25) (1,0.4): the middle point sits under the
    # chord from q=0.2 to q=1, whose slope 0.25 irons the two lower atoms
    support, probs = np.array([0.4, 0.5, 1.0]), np.array([0.5, 0.3, 0.2])
    assert near(ref.ironed_virtual_values(support, probs), [0.25, 0.25, 1.0])
    below, inside, above = ref.virtual_value_at(support, [0.25, 0.25, 1.0], [0.1, 0.45, 2.0])
    assert below == -np.inf and near([inside, above], [0.25, 1.0])


@case
def regular_distribution_is_not_ironed():
    # uniform on {1/4, 1/2, 3/4, 1}: the curve (0,0) (1/4,1/4) (1/2,3/8) (3/4,3/8) (1,1/4)
    # is concave, so each atom keeps the slope of its own segment
    support = np.array([0.25, 0.5, 0.75, 1.0])
    phis = ref.ironed_virtual_values(support, np.full(4, 0.25))
    assert near(phis, [-0.5, 0.0, 0.5, 1.0]), phis


@case
def optimal_revenue_single_bidder_is_monopoly():
    support, probs = np.array([0.2, 0.6, 0.9]), np.array([0.3, 0.5, 0.2])
    best = max(0.2 * 1.0, 0.6 * 0.7, 0.9 * 0.2)
    assert near(ref.monopoly_revenue(support, probs), best)
    assert near(ref.optimal_revenue([(support, probs)], [(0,), (1,)]), best)


@case
def dominated_empirical_cdf_by_hand():
    column = np.array([0.3] * 500 + [0.7] * 500)
    c = log(2 * 1 * 1000 / 0.1)
    at_03 = 0.5 + sqrt(2 * 0.25 * c / 1000) + 4 * c / 1000
    points, cdf = ref.dominated_empirical_cdf(column, 1, 0.1)
    assert near(points, [0.0, 0.3, 0.7])
    assert near(cdf, [4 * c / 1000, at_03, 1.0]), cdf


@case
def dominated_empirical_cdf_clamps_and_is_monotone():
    # with 4 samples the inflation floor 4 ln(16) / 4 exceeds 1: all mass at 0
    points, cdf = ref.dominated_empirical_cdf(np.array([0.2, 0.2, 0.5, 0.9]), 1, 0.5)
    assert near(points, [0.0, 0.2, 0.5, 0.9]) and near(cdf, [1.0, 1.0, 1.0, 1.0])


@case
def min_closeness_eps_single_gap():
    # one gap of 0.1 where the variances are 0.25 and 0.24, n = k = 1:
    # eps solves sqrt(0.24) eps / 2 + eps^2 / 2 = 0.1
    a = [(np.array([0.0, 1.0]), np.array([0.5, 0.5]))]
    b = [(np.array([0.0, 1.0]), np.array([0.6, 0.4]))]
    qb = sqrt(0.24 / 4)
    want = -qb + sqrt(qb * qb + 4 * 0.5 * 0.1)
    assert near(ref.min_closeness_eps(a, b, 1, 1), want), want
    assert ref.min_closeness_eps(a, a, 1, 1) == 0.0


@case
def dominance_by_hand():
    small = [(np.array([0.0, 1.0]), np.array([0.6, 0.4]))]
    big = [(np.array([0.0, 1.0]), np.array([0.5, 0.5]))]
    assert ref.dominates(big, small) and not ref.dominates(small, big)
    assert ref.dominates(big, big)


def main() -> int:
    failed = 0
    for fn in CASES:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {fn.__name__}: {exc}")
        else:
            print(f"ok   {fn.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
