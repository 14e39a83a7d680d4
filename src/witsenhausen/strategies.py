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

    (sqrt(Q)-sqrt(P))^2 N / ((sqrt(Q)-sqrt(P))^2 + N) for P <= Q; beyond Q the
    state is cancelled outright and the cost is 0.
    """
    if P < 0.0:
        raise ValueError(f"P must be nonnegative, got {P}")
    Q, N = params.Q, params.N
    if P > Q:
        return 0.0
    g = (math.sqrt(Q) - math.sqrt(P)) ** 2
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

    Inverts the power curve on its increasing branch by root-finding.
    """
    pmin = two_point_min_power(params)
    if P < pmin:
        return None
    m = math.sqrt(2.0 * params.Q / math.pi)

    def excess(a: float) -> float:
        return params.Q + a * (a - 2.0 * m) - P

    if excess(m) >= 0.0:
        # P sits at the vertex of the power parabola up to rounding
        return m
    hi = m + math.sqrt(P - pmin) + 1.0
    return find_root(excess, m, hi, tol=1e-14)


def dpc_critical_power(params: ProblemParams) -> float:
    """Power above which dirty-paper coding drives the estimation cost to zero.

    The unique positive root of P^2 (P + Q + N) = Q N^2.
    """
    Q, N = params.Q, params.N
    hi = max(Q, N, 1.0)
    return find_root(lambda p: p * p * (p + Q + N) - Q * N * N, 0.0, hi, tol=1e-15)


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


def _lin_dpc_objective(P: float, params: ProblemParams):
    """Residual dirty-paper cost after a linear power split parameterized by rho."""
    Q, N = params.Q, params.N
    sq, sp = math.sqrt(Q), math.sqrt(P)

    def f(rho: float) -> float:
        p_res = P * (1.0 - rho * rho)
        t = P + Q + 2.0 * rho * sq * sp
        num = N * (p_res * math.sqrt(t + N) - N * (sq + rho * sp)) ** 2
        den = (p_res + N) ** 2 * (t + N)
        return num / den

    return f


def mmse_lin_dpc(P: float, params: ProblemParams) -> tuple[float, float]:
    """Estimation cost of the combined linear + dirty-paper scheme and its split.

    Minimizes over rho in [-1, 1] the dirty-paper cost with power P(1-rho^2)
    against the residual state (sqrt(Q) + rho sqrt(P))^2. rho = -1 recovers the
    pure linear scheme, so this never does worse than it.
    """
    if P < 0.0:
        raise ValueError(f"P must be nonnegative, got {P}")
    if P == 0.0:
        return mmse_linear(0.0, params), -1.0
    rho_star, val = minimize_1d(_lin_dpc_objective(P, params), -1.0, 1.0, grid=401)
    return val, rho_star


def curve(
    strategy: str,
    params: ProblemParams,
    P_grid: Sequence[float],
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> TradeoffCurve:
    """Evaluate one strategy family on a power grid.

    The grid must be sorted strictly increasing and nonnegative. Power levels
    a family cannot realize (coord below its information constraint, two-point
    below its minimum power, gaussian/coord above Q) yield infeasible points
    with the reason recorded, not a failure.
    """
    if strategy not in STRATEGIES:
        raise UnknownStrategy(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    grid = [float(p) for p in P_grid]
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
