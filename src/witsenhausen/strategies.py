"""The strategy families as cost-curve evaluators.

Five families are exposed through a common sweep interface:

* ``linear``    - best affine control, closed form
* ``gaussian``  - optimum over jointly Gaussian auxiliaries (time sharing
                  between two linear gains inside its regime)
* ``two-point`` - antipodal interim state a*sign(state), tanh decoder
* ``dpc``       - dirty-paper-coding scheme of the non-causal decoder setting
* ``lin-dpc``   - power split between a linear part and dirty-paper coding
* ``coord``     - hybrid sign-coordination scheme (delegates to skewnormal)
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    CostPoint,
    CurvePoint,
    EmptyFeasibleSet,
    ProblemParams,
    TradeoffCurve,
    UnknownStrategy,
)
from .gaussian_info import optimal_rho_triple, timeshare_interval
from .numerics import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    find_root,
    gauss_weighted_integral,
    minimize_1d,
    norm_pdf,
)
from . import skewnormal

__all__ = [
    "STRATEGIES",
    "LinearPolicy",
    "TwoPointPolicy",
    "mmse_linear",
    "linear_policy_for_power",
    "timeshare_interval",
    "mmse_gaussian",
    "two_point_costs",
    "two_point_decoder",
    "two_point_min_power",
    "two_point_gain_for_power",
    "dpc_critical_power",
    "dpc_alpha",
    "mmse_dpc",
    "mmse_lin_dpc",
    "curve",
]

STRATEGIES = ("linear", "gaussian", "two-point", "dpc", "lin-dpc", "coord")

# x-tolerance in rho of the lin-dpc optimizer's searches and root-find. The
# residual's peak is searched as tightly as the cost's minimum, so that its
# sign, which decides whether the cost is exactly 0, is right near tangency.
LIN_DPC_RHO_TOL = 1e-12


@dataclass(frozen=True)
class LinearPolicy:
    """Affine first controller u = a x + b."""

    a: float
    b: float


@dataclass(frozen=True)
class TwoPointPolicy:
    """First controller u = a sign(x) - x, forcing the interim state to +-a."""

    a: float

    def __post_init__(self) -> None:
        if self.a < 0.0:
            raise ValueError(f"point magnitude must be nonnegative, got {self.a}")


def mmse_linear(P: float, params: ProblemParams) -> float:
    """Estimation cost of the best affine policy at power P.

    g N / (g + N) with g = (sqrt(Q)-sqrt(P))^2 for P <= Q; beyond Q the state is
    cancelled outright and the cost is 0. g is evaluated as
    ((Q-P) / (sqrt(Q)+sqrt(P)))^2, whose difference Q-P is exact near P = Q,
    where sqrt(Q)-sqrt(P) would be all rounding.
    """
    if P < 0.0:
        raise ValueError(f"P must be nonnegative, got {P}")
    Q, N = params.Q, params.N
    if P > Q:
        return 0.0
    g = ((Q - P) / (math.sqrt(Q) + math.sqrt(P))) ** 2
    return g * N / (g + N)


def linear_policy_for_power(P: float, params: ProblemParams) -> LinearPolicy:
    """Best affine policy meeting the power constraint with equality.

    Pure contraction -sqrt(P/Q) x for P <= Q; above Q the gain saturates at -1
    and the leftover power goes into an offset, which does not affect the cost.
    """
    if P < 0.0:
        raise ValueError(f"P must be nonnegative, got {P}")
    Q = params.Q
    if P <= Q:
        return LinearPolicy(-math.sqrt(P / Q), 0.0)
    return LinearPolicy(-1.0, math.sqrt(P - Q))


def mmse_gaussian(P: float, params: ProblemParams) -> float:
    """Optimal estimation cost over jointly Gaussian auxiliaries at power P.

    N (Q - N - P) / Q on the time-sharing interval when Q > 4N; elsewhere the
    best affine policy is optimal.
    """
    if P < 0.0:
        raise ValueError(f"P must be nonnegative, got {P}")
    Q, N = params.Q, params.N
    if Q > 4.0 * N:
        p1, p2 = timeshare_interval(params)
        if p1 <= P <= p2:
            return N * (Q - N - P) / Q
    return mmse_linear(P, params)


def two_point_min_power(params: ProblemParams) -> float:
    """Smallest power the two-point family can realize: Q (1 - 2/pi)."""
    return params.Q * (1.0 - 2.0 / math.pi)


def _log_cosh(z):
    """log cosh(z) without overflow: |z| + log1p(exp(-2|z|)) - log 2."""
    az = np.abs(z)
    return az + np.log1p(np.exp(-2.0 * az)) - math.log(2.0)


def two_point_costs(
    policy: TwoPointPolicy,
    params: ProblemParams,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> CostPoint:
    """Power and estimation cost of the two-point policy with magnitude a.

    P(a) = Q + a(a - 2 sqrt(2Q/pi));
    S(a) = sqrt(2 pi) a^2 phi(a/sqrt(N)) * int phi(t) sech(a t / sqrt(N)) dt.
    The sech factor is evaluated in log space: a/sqrt(N) can be large enough
    for cosh to overflow long before the integral becomes negligible.
    """
    a = policy.a
    Q, N = params.Q, params.N
    power = Q + a * (a - 2.0 * math.sqrt(2.0 * Q / math.pi))
    if a == 0.0:
        return CostPoint(power, 0.0)
    kappa = a / math.sqrt(N)

    def f(t):
        return np.exp(-_log_cosh(kappa * np.asarray(t, dtype=float)))

    integral = gauss_weighted_integral(f, cfg)
    mmse = math.sqrt(2.0 * math.pi) * a * a * norm_pdf(kappa) * integral
    return CostPoint(power, float(mmse))


def two_point_decoder(y: float, a: float, N: float) -> float:
    """Conditional-mean decoder of the two-point scheme: a tanh(a y / N)."""
    if N <= 0.0:
        raise ValueError("N must be positive")
    return a * math.tanh(a * y / N)


def two_point_gain_for_power(P: float, params: ProblemParams) -> float | None:
    """Magnitude a >= sqrt(2Q/pi) with P(a) = P, or None when P is unreachable.

    The increasing branch of the power parabola Q + a(a - 2 sqrt(2Q/pi)), whose
    vertex is the minimum power Q(1 - 2/pi): a = sqrt(2Q/pi) + sqrt(P - Pmin).
    """
    pmin = two_point_min_power(params)
    if P < pmin:
        return None
    return math.sqrt(2.0 * params.Q / math.pi) + math.sqrt(P - pmin)


def dpc_critical_power(params: ProblemParams) -> float:
    """Power above which dirty-paper coding drives the estimation cost to zero.

    The unique positive root of P^2 (P + Q + N) = Q N^2. It lies below N (the
    left side exceeds the right there by 2 N^3), and the bracket and the
    tolerance scale with N, so the root scales with the variances.
    """
    Q, N = params.Q, params.N
    return find_root(lambda p: p * p * (p + Q + N) - Q * N * N, 0.0, N, tol=1e-15 * N)


def dpc_alpha(P: float, params: ProblemParams) -> float:
    """Optimal precoding coefficient of the dirty-paper scheme at power P."""
    Q, N = params.Q, params.N
    if P <= 0.0:
        return 0.0
    return min(1.0, P * (math.sqrt(Q) + math.sqrt(P + Q + N)) / (math.sqrt(Q) * (P + N)))


def mmse_dpc(P: float, params: ProblemParams) -> float:
    """Estimation cost of the dirty-paper scheme at power P.

    N (N sqrt(Q) - P sqrt(P+Q+N))^2 / ((P+N)^2 (P+Q+N)) up to the critical
    power, 0 beyond it.
    """
    if P < 0.0:
        raise ValueError(f"P must be nonnegative, got {P}")
    Q, N = params.Q, params.N
    if P > dpc_critical_power(params):
        return 0.0
    num = N * (N * math.sqrt(Q) - P * math.sqrt(P + Q + N)) ** 2
    den = (P + N) ** 2 * (P + Q + N)
    return num / den


def _lin_dpc_terms(P: float, params: ProblemParams, rho: float):
    """(residual power P(1-rho^2), interim variance t, dirty-paper residual r) at rho.

    r = P(1-rho^2) sqrt(t+N) - N (sqrt(Q) + rho sqrt(P)) is the unsquared
    numerator of the dirty-paper cost against the residual state
    (sqrt(Q) + rho sqrt(P))^2; the cost is 0 wherever r >= 0. For P <= Q,
    sqrt(Q) + rho sqrt(P) is formed as (Q-P)/(sqrt(Q)+sqrt(P)) + (1+rho) sqrt(P)
    and t as its square plus P(1-rho)(1+rho): sums of nonnegative terms, so
    nothing cancels near rho = -1 and P = Q, where the cost is smallest.
    """
    Q, N = params.Q, params.N
    sq, sp = math.sqrt(Q), math.sqrt(P)
    s = (Q - P) / (sq + sp) + (1.0 + rho) * sp
    p_res = P * (1.0 - rho) * (1.0 + rho)
    t = s * s + p_res
    return p_res, t, p_res * math.sqrt(t + N) - N * s


def _lin_dpc_objective(P: float, params: ProblemParams):
    """The dirty-paper cost N r^2 / ((P(1-rho^2) + N)^2 (t + N)) as a function of rho.

    It is the lin-dpc cost only where r <= 0; where r > 0 that cost is 0.
    """
    N = params.N

    def f(rho: float) -> float:
        p_res, t, r = _lin_dpc_terms(P, params, rho)
        return N * r * r / ((p_res + N) ** 2 * (t + N))

    return f


def mmse_lin_dpc(P: float, params: ProblemParams) -> tuple[float, float]:
    """Estimation cost of the combined linear + dirty-paper scheme and its split.

    The linear part spends P rho^2 against the state, leaving the residual
    state (sqrt(Q) + rho sqrt(P))^2 to dirty-paper coding with power
    P(1-rho^2); rho = -1 recovers the pure linear scheme, so this never does
    worse than it. For P >= Q the linear part cancels the state: the cost is
    exactly 0 at rho = -sqrt(Q/P). Below Q the residual r is negative at
    rho = +-1. A bounded search maximizes r; if its peak is >= 0 the cost is
    exactly 0 and rho is the left root of r on [-1, rho_peak]. Otherwise r < 0
    throughout, and the cost is minimized directly, keeping the better of
    that minimum and the endpoints (the search never samples them).
    Returns (cost, rho).
    """
    if P < 0.0:
        raise ValueError(f"P must be nonnegative, got {P}")
    Q = params.Q
    if P == 0.0:
        return mmse_linear(0.0, params), -1.0
    if P >= Q:
        return 0.0, -math.sqrt(Q / P)

    def residual(rho: float) -> float:
        return _lin_dpc_terms(P, params, rho)[2]

    rho_peak, neg_peak = minimize_1d(
        lambda rho: -residual(rho), -1.0, 1.0, LIN_DPC_RHO_TOL
    )
    if neg_peak <= 0.0:
        return 0.0, find_root(residual, -1.0, rho_peak, LIN_DPC_RHO_TOL)
    f = _lin_dpc_objective(P, params)
    rho, val = minimize_1d(f, -1.0, 1.0, LIN_DPC_RHO_TOL)
    return min((val, rho), (f(-1.0), -1.0), (f(1.0), 1.0))


def curve(
    strategy: str,
    params: ProblemParams,
    P_grid: Sequence[float],
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> TradeoffCurve:
    """Evaluate one strategy family on a power grid.

    The grid must be finite, nonnegative and strictly increasing. Power levels
    a family cannot realize (coord below its information constraint, two-point
    below its minimum power, gaussian/coord above Q) yield infeasible points
    with the reason recorded, not a failure.
    """
    if strategy not in STRATEGIES:
        raise UnknownStrategy(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    grid = [float(p) for p in P_grid]
    if not all(math.isfinite(p) for p in grid):
        raise ValueError("power grid must be finite")
    if any(p < 0.0 for p in grid):
        raise ValueError("power grid must be nonnegative")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("power grid must be strictly increasing")
    points = tuple(_eval_point(strategy, p, params, cfg) for p in grid)
    return TradeoffCurve(strategy, params, points)


def _eval_point(
    strategy: str, P: float, params: ProblemParams, cfg: QuadratureConfig
) -> CurvePoint:
    Q = params.Q
    if strategy == "linear":
        pol = linear_policy_for_power(P, params)
        return CurvePoint(P, mmse_linear(P, params), True, pol.a, pol.b)
    if strategy == "gaussian":
        if P > Q:
            return CurvePoint(P, None, False, note="requires P <= Q")
        rho = optimal_rho_triple(P, params)
        return CurvePoint(P, mmse_gaussian(P, params), True, rho.rho1, rho.rho2)
    if strategy == "two-point":
        a = two_point_gain_for_power(P, params)
        if a is None:
            return CurvePoint(P, None, False, note="below two-point minimum power")
        return CurvePoint(P, two_point_costs(TwoPointPolicy(a), params, cfg).S, True, a)
    if strategy == "dpc":
        return CurvePoint(P, mmse_dpc(P, params), True, dpc_alpha(P, params))
    if strategy == "lin-dpc":
        val, rho = mmse_lin_dpc(P, params)
        return CurvePoint(P, val, True, rho)
    if strategy == "coord":
        if P > Q:
            return CurvePoint(P, None, False, note="requires P <= Q")
        try:
            val, rho = skewnormal.mmse_coord(P, params, cfg)
        except EmptyFeasibleSet:
            return CurvePoint(P, None, False, note="information constraint infeasible")
        return CurvePoint(P, val, True, rho)
    raise UnknownStrategy(strategy)
