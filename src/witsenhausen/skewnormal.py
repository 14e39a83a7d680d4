"""Skew-normal information quantities for the hybrid scheme with a sign side variable.

When the decoder additionally learns the sign of the interim state, the
conditional laws become skew normal. This module provides the entropy
reduction function Psi (the entropy deficit of a skew normal relative to its
Gaussian envelope), the three sign-conditioned entropies of the scheme, the
skew-normal conditional variance and mean, the information-constraint margin,
and the conditional MMSE of the scheme, optimized over the input correlation.

Numerical care: the skew integrands contain phi/Phi ratios whose denominator
underflows in the left tail; every such ratio is routed through the log-space
mills_ratio so no integral is silently truncated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import log_ndtr

from .core import DegenerateInput, EmptyFeasibleSet, ProblemParams, power_split, require_finite
from .gaussian_info import ic_feasible
# gauss_weighted_integral is unused here but stays bound: the benchmark's
# tracer (perfbench/tracer.py) wraps it in every module, and its self-test
# checks this binding.
from .numerics import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
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
    "sign_conditioned_entropies",
    "coord_ic_margin",
    "skew_cond_variance",
    "skew_cond_mean",
    "coord_mmse_at_rho",
    "mmse_coord",
    "coord_min_power",
    "cov_state_precoder",
    "cov_interim_output_precoder",
]

_LN2 = math.log(2.0)

# x-tolerances in rho of the coord optimizer: the bounded search for the peak
# IC margin only has to land inside the feasible interval, while the edge
# root-find sets rho* and with it S.
PEAK_RHO_TOL = 1e-5
EDGE_RHO_TOL = 1e-12


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

    t -> 0 makes t log2 t -> 0; the explicit branch avoids 0 * (-inf) = nan
    once exp(log Phi) underflows.
    """
    l = log_ndtr(alpha * x)
    t = 2.0 * np.exp(l)
    return np.where(t > 0.0, t * (l + _LN2) / _LN2, 0.0)


def entropy_reduction(alpha, cfg: QuadratureConfig = DEFAULT_QUADRATURE):
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
        psi = gauss_weighted_integrals(_psi_integrand, grid, cfg)
        out[todo] = psi[np.searchsorted(grid, mag[todo])]
    return float(out) if out.ndim == 0 else out


def _skew_scales(cp: CoordParams) -> tuple[float, float, float]:
    """(s, residual power, skewness of the joint output/precoder pair)."""
    s, p_res, t = power_split(cp.P, cp.Q, cp.rho)
    if s * s <= 0.0:
        return s, p_res, math.inf
    n = cp.N
    d2 = math.sqrt((t * s * s * n + p_res * (t + n) ** 2) / (s * s * n * n))
    return s, p_res, d2


def sign_conditioned_entropies(
    cp: CoordParams, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> tuple[float, float, float]:
    """The three conditional entropies of the hybrid scheme given the sign, in bits.

    Returns (h(state, precoder | sign), h(output | sign), h(output, precoder | sign)).
    Conditioning a centered Gaussian on a sign costs exactly one bit for the
    joint with the state, and a Psi correction for the skewed pairs.
    """
    s, p_res, d2 = _skew_scales(cp)
    if p_res <= 0.0 or s == 0.0:
        raise DegenerateInput(
            f"degenerate hybrid scheme: residual power {p_res}, state scale {s}"
        )
    t, n = cp.T, cp.N
    h_state_prec = 0.5 * math.log2(
        (2.0 * math.pi * math.e) ** 2 * cp.Q * p_res
    ) - 1.0
    h_out = 0.5 * math.log2(2.0 * math.pi * math.e * (t + n)) - entropy_reduction(
        math.sqrt(t / n), cfg
    )
    h_out_prec = 0.5 * math.log2(
        (2.0 * math.pi * math.e) ** 2 * (t + n) * n * p_res / (p_res + n)
    ) - entropy_reduction(d2, cfg)
    return h_state_prec, h_out, h_out_prec


def coord_ic_margin(
    cp: CoordParams, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """Information-constraint margin of the hybrid scheme, in bits.

    0.5 log2(1 + P(1-rho^2)/N) - Psi(sqrt(T/N)) + Psi(delta) - 1, where the
    trailing 1 is the one bit carried by the sign variable. The scheme is
    achievable iff the margin is >= 0. Returns -inf at the fully degenerate
    point where the interim state vanishes.
    """
    s, p_res, d2 = _skew_scales(cp)
    if s == 0.0:
        return -math.inf
    cap = 0.5 * math.log2(1.0 + p_res / cp.N)
    psi1, psi2 = entropy_reduction(np.array([math.sqrt(cp.T / cp.N), d2]), cfg)
    return cap - psi1 + psi2 - 1.0


def skew_cond_variance(y1, T: float, N: float):
    """Conditional variance of the interim state given output y1 and a positive sign.

    (TN/(T+N)) (1 - u m(u) - m(u)^2) with u = y1 sqrt(T/(N(T+N))) and m the
    Mills ratio; clipped into [0, TN/(T+N)], the bounds it satisfies exactly.
    Accepts scalars or arrays.
    """
    if T <= 0.0 or N <= 0.0:
        raise ValueError("T and N must be positive")
    sig2 = T * N / (T + N)
    u = np.asarray(y1, dtype=float) * math.sqrt(T / (N * (T + N)))
    m = mills_ratio(u)
    val = np.clip(sig2 * (1.0 - u * m - m * m), 0.0, sig2)
    if np.ndim(y1) == 0:
        return float(val)
    return val


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


def coord_mmse_at_rho(
    cp: CoordParams, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """Estimation cost of the hybrid scheme at a fixed correlation, in power units.

    Closed-form single integral
    (TN/(T+N)) (1 - (1/pi) sqrt(N/(2T+N)) * int phi(w)/Phi(kappa w) dw),
    kappa = sqrt(T/(2T+N)); the ratio in the integrand is rewritten as
    mills(kappa w) exp(-w^2 (1-kappa^2)/2), total on the whole line. Since
    kappa^2 <= 1/2, the integrand decays at least like exp(-w^2/4).
    """
    t, n = cp.T, cp.N
    if t == 0.0:
        return 0.0
    sig2 = t * n / (t + n)
    kap2 = t / (2.0 * t + n)
    kap = math.sqrt(kap2)

    def f(w):
        w = np.asarray(w, dtype=float)
        return mills_ratio(kap * w) * np.exp(-0.5 * w * w * (1.0 - kap2))

    g = integral_real_line(f, cfg)
    return sig2 * (1.0 - (1.0 / math.pi) * math.sqrt(n / (2.0 * t + n)) * g)


def _margin_in_rho(P: float, params: ProblemParams, cfg: QuadratureConfig):
    """The information-constraint margin at power P as a function of rho.

    The margin is >= -1 wherever it is finite (d2 >= d1, so Psi(d2) >= Psi(d1));
    its one -inf, where the interim state vanishes (P = Q, rho = -1), is
    clamped to -1 so that it can end a root-finder's bracket.
    """

    def margin(rho: float) -> float:
        cp = CoordParams(P, rho, params.Q, params.N)
        return max(coord_ic_margin(cp, cfg), -1.0)

    return margin


def _peak_margin(margin) -> tuple[float, float]:
    """(rho, margin) at the largest margin over rho in [-1, 1], by bounded Brent search."""
    rho, neg = minimize_1d(lambda rho: -margin(rho), -1.0, 1.0, PEAK_RHO_TOL)
    return rho, -neg


def mmse_coord(
    P: float, params: ProblemParams, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> tuple[float, float]:
    """Minimal hybrid-scheme estimation cost at power P, and its correlation.

    coord_mmse_at_rho depends on rho only through T = P + Q + 2 rho sqrt(PQ),
    which increases with rho, and it increases with T; the correlations with
    a nonnegative information-constraint margin form one interval. The
    optimum is therefore the left edge of that interval. A bounded
    maximization of the margin over rho decides feasibility and gives a
    feasible rho_peak; a bracketing root-find of the margin on [-1, rho_peak]
    then gives the edge rho*, stepped right if rounding left it infeasible.
    Returns (coord_mmse_at_rho at rho*, rho*). Raises EmptyFeasibleSet when
    no correlation lets the channel carry the one-bit sign; at P = 0 this is
    immediate, since with no residual power the margin is -1 for every rho.
    """
    Q, N = params.Q, params.N
    if not 0.0 <= P <= Q:
        raise ValueError(f"P={P} outside [0, Q]")
    if P == 0.0:
        raise EmptyFeasibleSet("coord infeasible at P=0: the IC margin is -1 for every rho")

    margin = _margin_in_rho(P, params, cfg)
    rho_peak, peak = _peak_margin(margin)
    if not ic_feasible(peak):
        raise EmptyFeasibleSet(
            f"coord infeasible at P={P}: peak IC margin {peak:.6g} bits at rho={rho_peak:.6g}"
        )
    rho = find_root(margin, -1.0, rho_peak, EDGE_RHO_TOL) if peak > 0.0 else rho_peak
    step = 1e-12
    while not ic_feasible(margin(rho)):
        rho = min(rho + step, rho_peak)
        step *= 2.0
    return coord_mmse_at_rho(CoordParams(P, rho, Q, N), cfg), rho


def coord_min_power(
    params: ProblemParams, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """Smallest power at which the hybrid scheme is feasible.

    The root in P of the peak information-constraint margin over rho, the
    quantity mmse_coord tests for feasibility; at P = 0 the margin is -1. The
    root-find stops at 1e-12 Q, so the result scales with the variances.
    Raises EmptyFeasibleSet when the scheme is infeasible even at P = Q.
    """

    def peak(P: float) -> float:
        if P == 0.0:
            return -1.0
        return _peak_margin(_margin_in_rho(P, params, cfg))[1]

    top = peak(params.Q)
    if not ic_feasible(top):
        raise EmptyFeasibleSet(
            f"coord infeasible at every power: peak IC margin {top:.6g} bits at P=Q"
        )
    if top <= 0.0:
        return params.Q
    return find_root(peak, 0.0, params.Q, 1e-12 * params.Q)


def cov_state_precoder(cp: CoordParams) -> np.ndarray:
    """Covariance of (state, precoder variable) for the hybrid scheme.

    Its determinant is P Q (1 - rho^2) regardless of the noise level.
    """
    s, p_res, _ = _skew_scales(cp)
    c = (p_res / (p_res + cp.N)) * (s / math.sqrt(cp.Q))
    return np.array(
        [
            [cp.Q, c * cp.Q],
            [c * cp.Q, p_res + c * c * cp.Q],
        ]
    )


def cov_interim_output_precoder(cp: CoordParams) -> np.ndarray:
    """Covariance of (interim state, output, precoder variable) for the hybrid scheme."""
    s, p_res, _ = _skew_scales(cp)
    t, n = cp.T, cp.N
    a = p_res * (t + n) / (p_res + n)
    w_var = p_res + (p_res * s / (p_res + n)) ** 2
    return np.array(
        [
            [t, t, a],
            [t, t + n, a],
            [a, a, w_var],
        ]
    )
