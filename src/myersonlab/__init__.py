"""Optimal single-parameter auctions over finite value distributions.

Modules: dist (distributions and closeness), curves (revenue curves and
ironing), feasible (allocation systems), auction (the optimal auction and
revenue evaluation), learn (sampling and learned priors), lab (experiment
harness), cli (command-line front end).
"""

from .auction import (
    Auction,
    CrossCheckError,
    EnumerationCapError,
    allocate,
    expected_revenue,
    expected_revenue_mc,
    expected_virtual_welfare,
    myerson,
    opt_revenue,
    payments,
    revenue_on_profile,
)
from .curves import (
    NEG_INF,
    RevenueCurve,
    iron,
    ironed_virtual,
    ironing_intervals,
    monopoly,
    revenue_curve,
    virtual_table,
)
from .dist import (
    ProductDist,
    ValueDist,
    cdf,
    dominates,
    is_close,
    is_close_uniform,
    make_discrete,
    point_mass,
    product_dist,
    quantile_of_value,
    scale_values,
    value_of_quantile,
)
from .feasible import (
    FeasibleSet,
    all_or_nothing,
    demand_reduce,
    feasible_from_json,
    find_exchange_violation,
    from_independent_sets,
    from_vertices,
    is_downward_closed,
    is_matroid,
    minimum_non_matroid,
    uniform_matroid,
)
from .lab import PreconditionError, Report
from .learn import (
    SampleMatrix,
    bernstein_radius,
    dominated_empirical,
    draw_samples,
    empirical,
    hellinger_sq,
    hellinger_sq_product,
    required_samples,
)

__version__ = "0.1.0"
