"""Optimal single-parameter auctions over finite value distributions.

Modules: dist (distributions, closeness, revenue curves and ironing),
feasible (allocation systems), auction (the optimal auction and exact
revenue), learn (sampling and learned priors), lab (experiment harness),
cli (command-line front end).
"""

from .auction import (
    allocate,
    expected_revenue,
    expected_virtual_welfare,
    myerson,
    opt_revenue,
    payments,
)
from .dist import (
    ProductDist,
    ValueDist,
    dominates,
    ironing_intervals,
    is_close,
    is_close_uniform,
    make_discrete,
    monopoly,
    point_mass,
    virtual_table,
)
from .feasible import (
    FeasibleSet,
    all_or_nothing,
    feasible_from_json,
    from_independent_sets,
    is_downward_closed,
    minimum_non_matroid,
    uniform_matroid,
)
from .lab import PreconditionError, Report
from .learn import (
    dominated_empirical,
    draw_samples,
    hellinger_sq,
    required_samples,
)

__version__ = "0.1.0"
