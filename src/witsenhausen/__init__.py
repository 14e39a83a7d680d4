"""Trade-off curves for the scalar Witsenhausen problem with a causal decoder.

Closed-form power vs. estimation-cost curves for the linear, Gaussian,
two-point, dirty-paper and hybrid sign-coordination strategy families, each
cross-validated by an independent Monte-Carlo simulation.
"""
from .core import (
    CurvePoint,
    EmpiricalCost,
    ProblemParams,
    WitsenhausenError,
    validate_params,
)
from .montecarlo import (
    SimConfig,
    simulate_hybrid_conditional,
    simulate_linear,
    simulate_two_point,
)
from .numerics import (
    find_root,
    gauss_weighted_integral,
    gauss_weighted_integrals,
    integral_real_line,
    mills_ratio,
    minimize_1d,
)
from .skewnormal import (
    CoordParams,
    coord_ic_margin,
    coord_min_power,
    coord_mmse_at_rho,
    entropy_reduction,
    ic_feasible,
    mmse_coord,
    skew_cond_mean,
)
from .strategies import (
    STRATEGIES,
    LinearPolicy,
    TwoPointPolicy,
    curve,
    linear_policy_for_power,
    mmse_dpc,
    mmse_gaussian,
    mmse_lin_dpc,
    mmse_linear,
    optimal_rho_pair,
    timeshare_interval,
    two_point_cost_grid,
    two_point_costs,
    two_point_decoder,
)

__version__ = "0.1.0"
