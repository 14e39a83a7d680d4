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
    power_split,
    require_finite,
)
from .gaussian_info import optimal_rho_triple, timeshare_interval
from .numerics import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    find_root,
    gauss_weighted_integral,
    gauss_weighted_integrals,
    minimize_1d,
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
    "two_point_power",
    "two_point_costs",
    "two_point_cost_grid",
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

    def __post_init__(self) -> None:
        require_finite(a=self.a, b=self.b)


@dataclass(frozen=True)
class TwoPointPolicy:
    """First controller u = a sign(x) - x, forcing the interim state to +-a."""

    a: float

    def __post_init__(self) -> None:
        require_finite(a=self.a)
        if self.a < 0.0:
            raise ValueError(f"point magnitude must be nonnegative, got {self.a}")


def mmse_linear(P: float, params: ProblemParams) -> float:
    """Estimation cost of the best affine policy at power P.

    g N / (g + N) with g = (sqrt(Q)-sqrt(P))^2 for P <= Q; beyond Q the state is
    cancelled outright and the cost is 0. It is the dirty-paper cost at
    rho = -1, where no power is left to code with.
    """
    if not 0.0 <= P < math.inf:
        raise ValueError(f"P must be nonnegative and finite, got {P}")
    return _dirty_paper_cost(P, params, -1.0)[0]


def linear_policy_for_power(P: float, params: ProblemParams) -> LinearPolicy:
    """Best affine policy meeting the power constraint with equality.

    Pure contraction -sqrt(P/Q) x for P <= Q; above Q the gain saturates at -1
    and the leftover power goes into an offset, which does not affect the cost.
    """
    if not 0.0 <= P < math.inf:
        raise ValueError(f"P must be nonnegative and finite, got {P}")
    Q = params.Q
    if P <= Q:
        return LinearPolicy(-math.sqrt(P / Q), 0.0)
    return LinearPolicy(-1.0, math.sqrt(P - Q))


def mmse_gaussian(P: float, params: ProblemParams) -> float:
    """Optimal estimation cost over jointly Gaussian auxiliaries at power P.

    N (Q - N - P) / Q on the time-sharing interval when Q > 4N; elsewhere the
    best affine policy is optimal.
    """
    if not 0.0 <= P < math.inf:
        raise ValueError(f"P must be nonnegative and finite, got {P}")
    Q, N = params.Q, params.N
    if Q > 4.0 * N:
        p1, p2 = timeshare_interval(params)
        if p1 <= P <= p2:
            return N * (Q - N - P) / Q
    return mmse_linear(P, params)


def two_point_min_power(params: ProblemParams) -> float:
    """Smallest power the two-point family can realize: Q (1 - 2/pi)."""
    return params.Q * (1.0 - 2.0 / math.pi)


def two_point_power(a, Q: float):
    """Power of the two-point policy with magnitude a: Q + a(a - 2 sqrt(2Q/pi)).

    Accepts a scalar or an array of magnitudes; an overflow gives inf.
    """
    with np.errstate(over="ignore"):
        return Q + a * (a - 2.0 * math.sqrt(2.0 * Q / math.pi))


def _log_cosh(z):
    """log cosh(z) without overflow: |z| + log1p(exp(-2|z|)) - log 2."""
    az = np.abs(z)
    return az + np.log1p(np.exp(-2.0 * az)) - math.log(2.0)


def _two_point_integrand(t, kappa):
    """sech(kappa t), through log cosh so that cosh never overflows."""
    return np.exp(-_log_cosh(kappa * t))


def _two_point_prefactor(a, kappa):
    """sqrt(2 pi) a^2 phi(kappa) = exp(2 log a - kappa^2/2), for a > 0.

    kappa^2 may overflow to inf, which makes the factor exactly 0.
    """
    with np.errstate(over="ignore"):
        return np.exp(2.0 * np.log(a) - 0.5 * kappa * kappa)


def two_point_costs(
    policy: TwoPointPolicy,
    params: ProblemParams,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> CostPoint:
    """Power and estimation cost of the two-point policy with magnitude a.

    P(a) = Q + a(a - 2 sqrt(2Q/pi));
    S(a) = sqrt(2 pi) a^2 phi(a/sqrt(N)) * int phi(t) sech(a t / sqrt(N)) dt.
    The sech factor and sqrt(2 pi) a^2 phi(a/sqrt(N)) = exp(2 log a - a^2/(2N))
    are evaluated in log space: a/sqrt(N) can be large enough for cosh to
    overflow long before the integral becomes negligible, and a^2 can
    overflow where the cost has long underflowed to 0. A magnitude whose
    power is not finite is rejected. `two_point_cost_grid` is the same
    computation over an array of magnitudes.
    """
    a = policy.a
    power = two_point_power(a, params.Q)
    if not math.isfinite(power):
        raise ValueError(f"two-point magnitude a={a} gives a power that is not finite")
    if a == 0.0:
        return CostPoint(power, 0.0)
    kappa = a / math.sqrt(params.N)
    integral = gauss_weighted_integral(lambda t: _two_point_integrand(t, kappa), cfg)
    return CostPoint(power, float(_two_point_prefactor(a, kappa) * integral))


def two_point_cost_grid(
    a, params: ProblemParams, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> tuple[np.ndarray, np.ndarray]:
    """Powers and estimation costs of the two-point policy at an array of magnitudes.

    The array form of `two_point_costs`: its sech integrals are one batched
    quadrature, and each (P, S) equals the scalar call's, bit for bit.
    Magnitudes must be nonnegative with finite powers.
    """
    a = np.asarray(a, dtype=float)
    if np.any(a < 0.0):
        raise ValueError("two-point magnitudes must be nonnegative")
    power = two_point_power(a, params.Q)
    if not np.all(np.isfinite(power)):
        bad = a[~np.isfinite(power)].flat[0]
        raise ValueError(f"two-point magnitude a={bad} gives a power that is not finite")
    cost = np.zeros(a.shape)
    pos = a > 0.0
    kappa = a[pos] / math.sqrt(params.N)
    integral = gauss_weighted_integrals(_two_point_integrand, kappa, cfg)
    cost[pos] = _two_point_prefactor(a[pos], kappa) * integral
    return power, cost


def two_point_decoder(y, a: float, N: float):
    """Conditional-mean decoder of the two-point scheme: a tanh(a y / N).

    Accepts a scalar or an array of outputs y.
    """
    if N <= 0.0:
        raise ValueError("N must be positive")
    return a * np.tanh(a * y / N)


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


def _dirty_paper_cost(P: float, params: ProblemParams, rho: float) -> tuple[float, float]:
    """Dirty-paper cost of the split of P at correlation rho, and its residual.

    With (s, p_res, t) = power_split(P, Q, rho), dirty-paper coding with power
    p_res against the residual state s X0 / sqrt(Q) leaves the estimation cost
    N r^2 / ((p_res + N)^2 (t + N)), where r = p_res sqrt(t+N) - N s is the
    unsquared numerator; the cost is exactly 0 where r >= 0. Returns (cost, r).
    """
    N = params.N
    s, p_res, t = power_split(P, params.Q, rho)
    r = p_res * math.sqrt(t + N) - N * s
    if r >= 0.0:
        return 0.0, r
    return N * r * r / ((p_res + N) ** 2 * (t + N)), r


def mmse_dpc(P: float, params: ProblemParams) -> float:
    """Estimation cost of the dirty-paper scheme at power P.

    N (N sqrt(Q) - P sqrt(P+Q+N))^2 / ((P+N)^2 (P+Q+N)), the dirty-paper cost
    at rho = 0; exactly 0 from the critical power on, where the residual's
    sign turns.
    """
    if not 0.0 <= P < math.inf:
        raise ValueError(f"P must be nonnegative and finite, got {P}")
    return _dirty_paper_cost(P, params, 0.0)[0]


def mmse_lin_dpc(P: float, params: ProblemParams) -> tuple[float, float]:
    """Estimation cost of the combined linear + dirty-paper scheme and its split.

    The input is split by `power_split`: a linear part spends P rho^2 against
    the state, and the rest is coded against the residual state at the
    dirty-paper cost; rho = -1 recovers the pure linear scheme, so this never
    does worse than it. For P >= Q the linear part cancels the state: the cost is
    exactly 0 at rho = -sqrt(Q/P). Below Q the residual r is negative at
    rho = +-1. A bounded search maximizes r; if its peak is >= 0 the cost is
    exactly 0 and rho is the left root of r on [-1, rho_peak]. Otherwise r < 0
    throughout, and the cost is minimized directly, keeping the better of
    that minimum and the endpoints (the search never samples them).
    Returns (cost, rho).
    """
    if not 0.0 <= P < math.inf:
        raise ValueError(f"P must be nonnegative and finite, got {P}")
    Q = params.Q
    if P == 0.0:
        return mmse_linear(0.0, params), -1.0
    if P >= Q:
        return 0.0, -math.sqrt(Q / P)

    def cost(rho: float) -> float:
        return _dirty_paper_cost(P, params, rho)[0]

    def residual(rho: float) -> float:
        return _dirty_paper_cost(P, params, rho)[1]

    rho_peak, neg_peak = minimize_1d(
        lambda rho: -residual(rho), -1.0, 1.0, LIN_DPC_RHO_TOL
    )
    if neg_peak <= 0.0:
        return 0.0, find_root(residual, -1.0, rho_peak, LIN_DPC_RHO_TOL)
    rho, val = minimize_1d(cost, -1.0, 1.0, LIN_DPC_RHO_TOL)
    return min((val, rho), (cost(-1.0), -1.0), (cost(1.0), 1.0))


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
    if strategy == "two-point":
        points = _two_point_points(grid, params, cfg)
    else:
        points = tuple(_eval_point(strategy, p, params, cfg) for p in grid)
    return TradeoffCurve(strategy, params, points)


def _two_point_points(
    grid: list[float], params: ProblemParams, cfg: QuadratureConfig
) -> tuple[CurvePoint, ...]:
    """The two-point curve: the magnitudes of all reachable powers in one batch."""
    gains = [two_point_gain_for_power(P, params) for P in grid]
    _, costs = two_point_cost_grid([a for a in gains if a is not None], params, cfg)
    cost = iter(costs)
    return tuple(
        CurvePoint(P, None, False, note="below two-point minimum power")
        if a is None
        else CurvePoint(P, float(next(cost)), True, a)
        for P, a in zip(grid, gains)
    )


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
