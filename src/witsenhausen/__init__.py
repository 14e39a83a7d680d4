"""Trade-off curves for the scalar Witsenhausen problem with a causal decoder.

Closed-form power vs. estimation-cost curves for the linear, Gaussian,
two-point, dirty-paper and hybrid sign-coordination strategy families, each
cross-validated by an independent Monte-Carlo simulation.
"""
from .core import (
    CorrelationTriple,
    CostPoint,
    CurvePoint,
    EmpiricalCost,
    ProblemParams,
    TradeoffCurve,
    WitsenhausenError,
    validate_params,
)
from .gaussian_info import (
    GaussianVector,
    StateChannelParams,
    gaussian_entropy_bits,
    gaussian_policy_ic,
    gaussian_policy_mmse,
    ic_feasible,
    optimal_rho2,
    optimal_rho_triple,
    state_dep_ic,
)
from .montecarlo import (
    SimConfig,
    simulate_hybrid_conditional,
    simulate_linear,
    simulate_two_point,
)
from .numerics import (
    QuadratureConfig,
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
    mmse_coord,
    sign_conditioned_entropies,
    skew_cond_mean,
    skew_cond_variance,
)
from .strategies import (
    STRATEGIES,
    LinearPolicy,
    TwoPointPolicy,
    curve,
    dpc_critical_power,
    linear_policy_for_power,
    mmse_dpc,
    mmse_gaussian,
    mmse_lin_dpc,
    mmse_linear,
    timeshare_interval,
    two_point_cost_grid,
    two_point_costs,
    two_point_decoder,
)

__version__ = "0.1.0"
