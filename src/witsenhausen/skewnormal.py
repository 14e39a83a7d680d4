"""Skew-normal information quantities for the hybrid scheme with a sign side variable.

When the decoder additionally learns the sign of the interim state, the
conditional laws become skew normal. This module provides the entropy
reduction function Psi (the entropy deficit of a skew normal relative to its
Gaussian envelope), the information-constraint margin and its feasibility
test, the skew-normal conditional mean the simulator decodes with, and the
conditional MMSE of the scheme, optimized over the input correlation. The
sign-conditioned entropies, the conditional variance and the covariances
they are built from only check these closed forms; they are test oracles
(tests/skew_oracles.py).

Numerical care: the skew integrands contain phi/Phi ratios whose denominator
underflows in the left tail; every such ratio is routed through mills_ratio
(built on erfcx, so the left tail needs no exp/log pair), and no integral is
silently truncated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import log_ndtr

from .core import EmptyFeasibleSet, ProblemParams, power_split, require_finite
# gauss_weighted_integral is unused here but stays bound: the benchmark's
# tracer (perfbench/tracer.py) wraps it in every module, and its self-test
# checks this binding.
from .numerics import (
    _GOLDEN_MEAN,
    DEFAULT_TOL,
    find_root,
    gauss_weighted_integral,  # noqa: F401
    gauss_weighted_integrals,
    integral_real_line,
    mills_ratio,
    minimize_1d,
)

__all__ = [
    "CoordParams",
    "entropy_reduction",
    "ic_feasible",
    "coord_ic_margin",
    "skew_cond_mean",
    "coord_mmse_at_rho",
    "mmse_coord",
    "coord_min_power",
]

_LN2 = math.log(2.0)

# Rounding slack of the feasibility test: a margin this far below 0 is a
# point on the constraint boundary, which is achievable.
_IC_TOL = 1e-12

# x-tolerances in rho of the coord optimizer: the bounded search for the peak
# IC margin only has to land inside the feasible interval, while the edge
# root-find sets rho* and with it S.
PEAK_RHO_TOL = 1e-5
EDGE_RHO_TOL = 1e-12

# The first point of minimize_1d's bounded search on [-1, 1], formed by the
# same floating-point operations, so that a margin probed here is the one
# the search reads back from the memo.
_PROBE_RHO = -1.0 + 2.0 * _GOLDEN_MEAN


@dataclass(frozen=True)
class CoordParams:
    """Hybrid-scheme operating point: power P, input correlation rho, and (Q, N).

    T = P + Q + 2 rho sqrt(PQ) is the interim-state variance, the t of
    `power_split`. Requires finite values, 0 <= P <= Q and Q, N > 0.
    """

    P: float
    rho: float
    Q: float
    N: float
    T: float = field(init=False)

    def __post_init__(self) -> None:
        require_finite(P=self.P, rho=self.rho, Q=self.Q, N=self.N)
        if self.Q <= 0.0 or self.N <= 0.0:
            raise ValueError("Q and N must be positive")
        if not 0.0 <= self.P <= self.Q:
            raise ValueError(f"P={self.P} outside [0, Q={self.Q}]")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho={self.rho} outside [-1, 1]")
        object.__setattr__(self, "T", power_split(self.P, self.Q, self.rho)[2])


def _psi_integrand(x, alpha):
    """t log2 t with t = 2 Phi(alpha x), evaluated through the log CDF.

    t -> 0 makes t log2 t -> 0; where t underflows to 0, the log is replaced
    by 0 so the product is an exact 0.0 rather than 0 * (-inf) = nan.
    """
    l = log_ndtr(alpha * x)
    t = 2.0 * np.exp(l)
    return t * (np.where(t > 0.0, l, 0.0) + _LN2) / _LN2


def entropy_reduction(alpha, tol: float = DEFAULT_TOL):
    """Entropy deficit Psi(alpha) of a skew normal with skewness alpha, in bits.

    Psi(alpha) = int 2 Phi(alpha x) log2(2 Phi(alpha x)) phi(x) dx. Even in
    alpha, Psi(0) = 0, and Psi -> 1 as |alpha| -> inf. Accepts a scalar or
    an array: Psi is evaluated at |alpha|, so Psi(-alpha) == Psi(alpha)
    exactly, 0 and +-inf give exactly 0.0 and 1.0, and the remaining
    distinct magnitudes are integrated once each in one batched quadrature.
    """
    mag = np.abs(np.asarray(alpha, dtype=float))
    out = np.where(mag == 0.0, 0.0, 1.0)
    todo = (mag != 0.0) & (mag != math.inf)
    if todo.any():
        # the distinct magnitudes without np.unique, whose fixed cost is
        # about 5% of the size-2 call that coord_ic_margin makes
        grid = np.sort(mag[todo])
        grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
        psi = gauss_weighted_integrals(_psi_integrand, grid, tol)
        out[todo] = psi[np.searchsorted(grid, mag[todo])]
    return float(out) if out.ndim == 0 else out


def _skew_scales(p: float, n: float, rho: float) -> tuple[float, float, float]:
    """(s, residual power, skewness of the joint output/precoder pair), in units of Q."""
    s, p_res, t = power_split(p, 1.0, rho)
    if s * s <= 0.0:
        return s, p_res, math.inf
    r = (t + n) / n / s
    d2 = math.sqrt(t / n + p_res * r * r)
    return s, p_res, d2


def ic_feasible(ic_bits: float) -> bool:
    """Feasibility predicate on an information-constraint margin in bits.

    True iff ic_bits >= -1e-12; the slack absorbs rounding at the boundary,
    which is achievable.
    """
    return ic_bits >= -_IC_TOL


def coord_ic_margin(cp: CoordParams, tol: float = DEFAULT_TOL) -> float:
    """Information-constraint margin of the hybrid scheme, in bits.

    0.5 log2(1 + P(1-rho^2)/N) - Psi(sqrt(T/N)) + Psi(delta) - 1, where the
    trailing 1 is the one bit carried by the sign variable. The scheme is
    achievable iff the margin is >= 0. Returns -inf at the fully degenerate
    point where the interim state vanishes, and exactly -1.0, with no
    quadrature, where no residual power is left (rho = +-1 or P = 0): there
    the capacity term is 0 and delta = sqrt(T/N), so the Psi terms cancel.
    """
    n = cp.N / cp.Q
    s, p_res, d2 = _skew_scales(cp.P / cp.Q, n, cp.rho)
    if s == 0.0:
        return -math.inf
    if p_res == 0.0:
        return -1.0
    cap = 0.5 * math.log2(1.0 + p_res / n)
    psi1, psi2 = entropy_reduction(np.array([math.sqrt(cp.T / cp.N), d2]), tol)
    return float(cap - psi1 + psi2 - 1.0)


def skew_cond_mean(y1, T: float, N: float):
    """Conditional mean of the interim state given output y1 and a positive sign.

    mu + sigma m(mu/sigma) with mu = y1 T/(T+N) and sigma^2 = TN/(T+N): the
    mean of the conditional Gaussian truncated to the positive half-line.
    """
    if T <= 0.0 or N <= 0.0:
        raise ValueError("T and N must be positive")
    sig = math.sqrt(T * N / (T + N))
    mu = np.asarray(y1, dtype=float) * (T / (T + N))
    val = mu + sig * mills_ratio(mu / sig)
    if np.ndim(y1) == 0:
        return float(val)
    return val


def coord_mmse_at_rho(cp: CoordParams, tol: float = DEFAULT_TOL) -> float:
    """Estimation cost of the hybrid scheme at a fixed correlation, in power units.

    Closed-form single integral
    (TN/(T+N)) (1 - (1/pi) sqrt(N/(2T+N)) * int phi(w)/Phi(kappa w) dw),
    kappa = sqrt(T/(2T+N)); the ratio in the integrand is rewritten as
    mills(kappa w) exp(-w^2 (1-kappa^2)/2), total on the whole line. Since
    kappa^2 <= 1/2, the integrand decays at least like exp(-w^2/4).
    """
    t, n = cp.T / cp.Q, cp.N / cp.Q
    if t == 0.0:
        return 0.0
    # n times a ratio <= 1: the product t n goes subnormal at tiny n
    sig2 = n * (t / (t + n))
    kap2 = t / (2.0 * t + n)
    kap = math.sqrt(kap2)

    def f(w):
        w = np.asarray(w, dtype=float)
        return mills_ratio(kap * w) * np.exp(-0.5 * w * w * (1.0 - kap2))

    g = integral_real_line(f, tol)
    return cp.Q * (sig2 * (1.0 - (1.0 / math.pi) * math.sqrt(n / (2.0 * t + n)) * g))


def _margin_in_rho(p: float, n: float, tol: float):
    """The information-constraint margin at power p as a function of rho, in units of Q.

    The margin is >= -1 wherever it is finite (d2 >= d1, so Psi(d2) >= Psi(d1));
    its one -inf, where the interim state vanishes (P = Q, rho = -1), is
    clamped to -1 so that it can end a root-finder's bracket. Each rho is
    evaluated once: the solvers revisit points (the root-finder's upper end is
    the peak search's best point), and a revisit is read from the memo.
    """
    memo: dict[float, float] = {}

    def margin(rho: float) -> float:
        if rho not in memo:
            memo[rho] = max(coord_ic_margin(CoordParams(p, rho, 1.0, n), tol), -1.0)
        return memo[rho]

    return margin


def _peak_margin(margin) -> tuple[float, float]:
    """(rho, margin) at the largest margin over rho in [-1, 1], by bounded Brent search."""
    rho, neg = minimize_1d(lambda rho: -margin(rho), -1.0, 1.0, PEAK_RHO_TOL)
    return rho, -neg


def mmse_coord(
    P: float, params: ProblemParams, tol: float = DEFAULT_TOL
) -> tuple[float, float]:
    """Minimal hybrid-scheme estimation cost at power P, and its correlation.

    coord_mmse_at_rho depends on rho only through T = P + Q + 2 rho sqrt(PQ),
    which increases with rho, and it increases with T; the correlations with
    a nonnegative information-constraint margin form one interval. The
    optimum is therefore the left edge of that interval, and any rho_hi with
    a positive margin brackets it in [-1, rho_hi], since the margin at -1 is
    -1. The margin is first probed at rho0 = -1 + 2 g (g the golden mean),
    the point a bounded search on [-1, 1] starts from. If it is positive,
    rho_hi = rho0 and no peak search is needed. Otherwise a bounded
    maximization of the margin over rho, whose first evaluation is the probe,
    decides feasibility and gives rho_hi = rho_peak. A bracketing root-find of
    the margin on [-1, rho_hi] then gives the edge rho*: it stops at the first
    point whose margin is within the feasibility slack of 0, and its result
    is stepped right (never past rho_hi) if rounding left it infeasible.
    Each margin is evaluated once per call, and at rho = -1 it costs no
    quadrature.
    Returns (coord_mmse_at_rho at rho*, rho*). Raises EmptyFeasibleSet when
    no correlation lets the channel carry the one-bit sign; at P = 0 this is
    immediate, since with no residual power the margin is -1 for every rho.
    """
    p, n = params.unit_power(P), params.n
    if P > params.Q:
        raise ValueError(f"P={P} outside [0, Q]")
    if p == 0.0:
        raise EmptyFeasibleSet("coord infeasible at P=0: the IC margin is -1 for every rho")

    margin = _margin_in_rho(p, n, tol)
    rho_hi = _PROBE_RHO
    if margin(rho_hi) <= 0.0:
        rho_hi, peak = _peak_margin(margin)
        if not ic_feasible(peak):
            raise EmptyFeasibleSet(
                f"coord infeasible at P={P}: peak IC margin {peak:.6g} bits at rho={rho_hi:.6g}"
            )

    def edge_margin(rho: float) -> float:
        # 0.0 inside the feasibility slack, so that Brent stops at the first
        # point it finds on the constraint boundary
        m = margin(rho)
        return 0.0 if abs(m) <= _IC_TOL else m

    rho = find_root(edge_margin, -1.0, rho_hi, EDGE_RHO_TOL) if margin(rho_hi) > 0.0 else rho_hi
    step = 1e-12
    while not ic_feasible(margin(rho)):
        rho = min(rho + step, rho_hi)
        step *= 2.0
    return params.Q * coord_mmse_at_rho(CoordParams(p, rho, 1.0, n), tol), rho


def coord_min_power(params: ProblemParams, tol: float = DEFAULT_TOL) -> float:
    """Smallest power at which the hybrid scheme is feasible.

    The root in P of the peak information-constraint margin over rho, the
    quantity mmse_coord tests for feasibility; at P = 0 the margin is -1. The
    root-find runs on P/Q in [0, 1] and stops at 1e-12. Raises
    EmptyFeasibleSet when the scheme is infeasible even at P = Q.
    """

    def peak(p: float) -> float:
        if p == 0.0:
            return -1.0
        return _peak_margin(_margin_in_rho(p, params.n, tol))[1]

    top = peak(1.0)
    if not ic_feasible(top):
        raise EmptyFeasibleSet(
            f"coord infeasible at every power: peak IC margin {top:.6g} bits at P=Q"
        )
    if top <= 0.0:
        return params.Q
    return params.Q * find_root(peak, 0.0, 1.0, 1e-12)
