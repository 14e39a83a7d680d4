"""The strategy families as cost-curve evaluators.

Six families are exposed through a common sweep interface:

* ``linear``    - best affine control, closed form
* ``gaussian``  - optimum over jointly Gaussian auxiliaries (time sharing
                  between two linear gains inside its regime)
* ``two-point`` - antipodal interim state a*sign(state), tanh decoder
* ``dpc``       - dirty-paper-coding scheme of the non-causal decoder setting
* ``lin-dpc``   - power split between a linear part and dirty-paper coding
* ``coord``     - hybrid sign-coordination scheme (delegates to skewnormal)

The gaussian family's time-sharing interval and optimal correlations live
here, with the curve that writes them. The two-point tanh decoder is run
only by the simulator and lives there (`montecarlo`). The Gaussian-vector
entropies and the dirty-paper critical power, which only check these closed
forms, are test oracles (tests/gaussian_oracles.py).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    CurvePoint,
    EmptyFeasibleSet,
    NonConvergence,
    ProblemParams,
    power_split,
    require_finite,
)
from .numerics import (
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
    "optimal_rho_pair",
    "mmse_gaussian",
    "two_point_power",
    "two_point_costs",
    "two_point_cost_grid",
    "two_point_min_power",
    "two_point_gain_for_power",
    "dpc_alpha",
    "mmse_dpc",
    "mmse_lin_dpc",
    "curve",
]

STRATEGIES = ("linear", "gaussian", "two-point", "dpc", "lin-dpc", "coord")

# x-tolerance in rho of the lin-dpc optimizer's searches and root-find. The
# residual's search stops at its first positive value, and where it finds
# none it runs to the peak as tightly as the cost's minimum, so that the
# peak's sign, which decides whether the cost is exactly 0, is right near
# tangency.
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
    return params.Q * _dirty_paper_cost(params.unit_power(P), params.n, -1.0)[0]


def linear_policy_for_power(P: float, params: ProblemParams) -> LinearPolicy:
    """Best affine policy meeting the power constraint with equality.

    Pure contraction -sqrt(P/Q) x for P <= Q; above Q the gain saturates at -1
    and the leftover power goes into an offset, which does not affect the cost.
    """
    p = params.unit_power(P)
    if P <= params.Q:
        return LinearPolicy(-math.sqrt(p), 0.0)
    return LinearPolicy(-1.0, math.sqrt(params.Q) * math.sqrt(p - 1.0))


def timeshare_interval(params: ProblemParams) -> tuple[float, float]:
    """Power interval where time sharing between two linear gains is optimal.

    Q (1 - 2n -+ sqrt(1 - 4n)) / 2 with n = N/Q; only defined for Q > 4N.
    The roots multiply to n^2, so the lower end is formed as n^2 over the
    upper one, which does not cancel; it underflows to 0 below n ~ 1e-162.
    """
    n = params.n
    if 4.0 * n >= 1.0:
        raise ValueError(f"requires Q > 4N, got Q={params.Q}, N={params.N}")
    p_hi = 0.5 * (1.0 - 2.0 * n + math.sqrt(1.0 - 4.0 * n))
    return params.Q * (n * n / p_hi), params.Q * p_hi


def optimal_rho_pair(P: float, params: ProblemParams) -> tuple[float, float]:
    """Optimal (rho1, rho2) of the jointly Gaussian policy for power P.

    rho1 correlates the state with the side variable and rho2 the state with
    the input; the input/side-variable correlation rho3 is 0 at the optimum.
    Inside the regime Q > 4N with P between the two time-sharing powers the
    optimum is rho1 = sqrt((PQ - (P+N)^2) / (Q(P+N))), rho2 = -(P+N)/sqrt(PQ);
    everywhere else it collapses to the pure state contraction (0, -1).
    """
    p, n = params.unit_power(P), params.n
    if P > params.Q:
        raise ValueError(f"P={P} outside [0, Q]")
    if 4.0 * n < 1.0:
        p_lo, p_hi = timeshare_interval(params)
        if p > 0.0 and p_lo <= P <= p_hi:
            rho1 = math.sqrt(max((p - (p + n) ** 2) / (p + n), 0.0))
            return rho1, max(-(p + n) / math.sqrt(p), -1.0)
    return 0.0, -1.0


def mmse_gaussian(P: float, params: ProblemParams) -> float:
    """Optimal estimation cost over jointly Gaussian auxiliaries at power P.

    N (Q - N - P) / Q on the time-sharing interval when Q > 4N; elsewhere the
    best affine policy is optimal.
    """
    p, n = params.unit_power(P), params.n
    if 4.0 * n < 1.0:
        p1, p2 = timeshare_interval(params)
        if p > 0.0 and p1 <= P <= p2:
            return params.Q * (n * (1.0 - n - p))
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


def two_point_costs(policy: TwoPointPolicy, params: ProblemParams) -> tuple[float, float]:
    """Power P and estimation cost S of the two-point policy with magnitude a.

    P(a) = Q + a(a - 2 sqrt(2Q/pi)); with u = a/sqrt(Q) and kappa = a/sqrt(N),
    S(a) = Q sqrt(2 pi) u^2 phi(kappa) * int phi(t) sech(kappa t) dt.
    The sech factor and sqrt(2 pi) u^2 phi(kappa) = exp(2 log u - kappa^2/2)
    are evaluated in log space: kappa can be large enough for cosh to
    overflow long before the integral becomes negligible, and u^2 can
    overflow where the cost has long underflowed to 0. A magnitude whose
    power is not finite is rejected. `two_point_cost_grid` is the same
    computation over an array of magnitudes. Returns (P, S).
    """
    a = policy.a
    power = two_point_power(a, params.Q)
    if not math.isfinite(power):
        raise ValueError(f"two-point magnitude a={a} gives a power that is not finite")
    if a == 0.0:
        return power, 0.0
    kappa = a / math.sqrt(params.N)
    integral = gauss_weighted_integral(lambda t: _two_point_integrand(t, kappa))
    prefactor = _two_point_prefactor(a / math.sqrt(params.Q), kappa)
    return power, params.Q * float(prefactor * integral)


def two_point_cost_grid(a, params: ProblemParams) -> tuple[np.ndarray, np.ndarray]:
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
    integral = gauss_weighted_integrals(_two_point_integrand, kappa)
    u = a[pos] / math.sqrt(params.Q)
    cost[pos] = params.Q * (_two_point_prefactor(u, kappa) * integral)
    return power, cost


def two_point_gain_for_power(P: float, params: ProblemParams) -> float | None:
    """Magnitude a >= sqrt(2Q/pi) with P(a) = P, or None when P is unreachable.

    The increasing branch of the power parabola Q + a(a - 2 sqrt(2Q/pi)), whose
    vertex is the minimum power Q(1 - 2/pi): a = sqrt(Q) (sqrt(2/pi) + sqrt((P - Pmin)/Q)).
    """
    pmin = two_point_min_power(params)
    if P < pmin:
        return None
    return math.sqrt(params.Q) * (math.sqrt(2.0 / math.pi) + math.sqrt((P - pmin) / params.Q))


def dpc_alpha(P: float, params: ProblemParams) -> float:
    """Optimal precoding coefficient of the dirty-paper scheme at power P."""
    p, n = params.unit_power(P), params.n
    return min(1.0, p * (1.0 + math.sqrt(p + 1.0 + n)) / (p + n))


def _dirty_paper_cost(p: float, n: float, rho: float) -> tuple[float, float]:
    """Dirty-paper cost of the split of p at correlation rho, and its residual, in units of Q.

    With (s, p_res, t) = power_split(p, 1.0, 1 + rho), dirty-paper coding with power
    p_res against the residual state s X0 leaves the estimation cost
    (r / (p_res + n))^2 n / (t + n), where r = p_res sqrt(t+n) - n s; neither
    factor under- or overflows at any ratio n. It is exactly 0 where r >= 0.
    Returns (cost, r).
    """
    s, p_res, t = power_split(p, 1.0, 1.0 + rho)
    r = p_res * math.sqrt(t + n) - n * s
    if r >= 0.0:
        return 0.0, r
    return (r / (p_res + n)) ** 2 * (n / (t + n)), r


def mmse_dpc(P: float, params: ProblemParams) -> float:
    """Estimation cost of the dirty-paper scheme at power P.

    N (N sqrt(Q) - P sqrt(P+Q+N))^2 / ((P+N)^2 (P+Q+N)), the dirty-paper cost
    at rho = 0; exactly 0 from the critical power on, where the residual's
    sign turns.
    """
    return params.Q * _dirty_paper_cost(params.unit_power(P), params.n, 0.0)[0]


def mmse_lin_dpc(P: float, params: ProblemParams) -> tuple[float, float]:
    """Estimation cost of the combined linear + dirty-paper scheme and its split.

    The input is split by `power_split`: a linear part spends P rho^2 against
    the state, and the rest is coded against the residual state at the
    dirty-paper cost; rho = -1 recovers the pure linear scheme, so this never
    does worse than it. For P >= Q the linear part cancels the state: the cost is
    exactly 0 at rho = -sqrt(Q/P). Below Q the residual r is negative at
    rho = +-1. A bounded search maximizes r and stops at its first point
    with r > 0, which brackets the left root of r with rho = -1. If it finds
    such a point, or a peak of exactly 0, the cost is exactly 0 and rho is
    the left root of r on [-1, rho_hi]. Otherwise r < 0 throughout, and the
    cost is minimized directly, keeping the better of that minimum and the
    endpoints (the search never samples them).
    Returns (cost, rho).
    """
    p, n = params.unit_power(P), params.n
    if p == 0.0:
        return mmse_linear(0.0, params), -1.0
    if P >= params.Q:
        return 0.0, -math.sqrt(params.Q / P)

    def cost(rho: float) -> float:
        return _dirty_paper_cost(p, n, rho)[0]

    def residual(rho: float) -> float:
        return _dirty_paper_cost(p, n, rho)[1]

    rho_hi, neg_r = minimize_1d(
        lambda rho: -residual(rho), -1.0, 1.0, LIN_DPC_RHO_TOL, stop=0.0
    )
    if neg_r <= 0.0:
        return 0.0, find_root(residual, -1.0, rho_hi, LIN_DPC_RHO_TOL)
    rho, val = minimize_1d(cost, -1.0, 1.0, LIN_DPC_RHO_TOL)
    val, rho = min((val, rho), (cost(-1.0), -1.0), (cost(1.0), 1.0))
    return params.Q * val, rho


def curve(
    strategy: str, params: ProblemParams, P_grid: Sequence[float]
) -> tuple[CurvePoint, ...]:
    """Evaluate one strategy family on a power grid: one CurvePoint per power.

    The grid must be finite, nonnegative and strictly increasing. Power levels
    a family cannot realize (coord below its information constraint, two-point
    below its minimum power, gaussian/coord above Q) yield points with S None
    and the reason in their note, not a failure.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    grid = [float(p) for p in P_grid]
    if not all(0.0 <= p < math.inf for p in grid):
        raise ValueError("power grid must be finite and nonnegative")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("power grid must be strictly increasing")
    if strategy == "two-point":
        return _two_point_points(grid, params)
    return tuple(_eval_point(strategy, p, params) for p in grid)


def _failed_at(
    exc: NonConvergence, strategy: str, powers: Sequence[float]
) -> NonConvergence:
    """The same failure with the strategy and its powers prefixed to the message.

    The CLI still reports it as a numerical failure (exit 3); one power is
    named as P=x, a batch as P=first..last.
    """
    at = f"P={powers[0]!r}" + (f"..{powers[-1]!r}" if len(powers) > 1 else "")
    return NonConvergence(f"{strategy} at {at}: {exc}")


def _two_point_points(grid: list[float], params: ProblemParams) -> tuple[CurvePoint, ...]:
    """The two-point curve: the magnitudes of all reachable powers in one batch."""
    gains = [two_point_gain_for_power(P, params) for P in grid]
    try:
        _, costs = two_point_cost_grid([a for a in gains if a is not None], params)
    except NonConvergence as exc:
        reachable = [P for P, a in zip(grid, gains) if a is not None]
        raise _failed_at(exc, "two-point", reachable) from exc
    cost = iter(costs)
    return tuple(
        CurvePoint(P, None, note="below two-point minimum power")
        if a is None
        else CurvePoint(P, float(next(cost)), a)
        for P, a in zip(grid, gains)
    )


def _eval_point(strategy: str, P: float, params: ProblemParams) -> CurvePoint:
    if strategy == "linear":
        pol = linear_policy_for_power(P, params)
        return CurvePoint(P, mmse_linear(P, params), pol.a, pol.b)
    if strategy in ("gaussian", "coord") and P > params.Q:
        return CurvePoint(P, None, note="requires P <= Q")
    if strategy == "gaussian":
        rho1, rho2 = optimal_rho_pair(P, params)
        return CurvePoint(P, mmse_gaussian(P, params), rho1, rho2)
    if strategy == "dpc":
        return CurvePoint(P, mmse_dpc(P, params), dpc_alpha(P, params))
    # only these two families run a solver or a quadrature per power
    if strategy == "lin-dpc":
        try:
            val, rho = mmse_lin_dpc(P, params)
        except NonConvergence as exc:
            raise _failed_at(exc, strategy, (P,)) from exc
        return CurvePoint(P, val, rho)
    try:
        val, rho = skewnormal.mmse_coord(P, params)
    except EmptyFeasibleSet:
        return CurvePoint(P, None, note="information constraint infeasible")
    except NonConvergence as exc:
        raise _failed_at(exc, strategy, (P,)) from exc
    return CurvePoint(P, val, rho)
