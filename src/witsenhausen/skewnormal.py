"""Skew-normal information quantities for the hybrid scheme with a sign side variable.

When the decoder additionally learns the sign of the interim state, the
conditional laws become skew normal. This module provides the entropy
reduction function Psi (the entropy deficit of a skew normal relative to its
Gaussian envelope), the information-constraint margin and its feasibility
test, and the conditional MMSE of the scheme, optimized over the input
correlation. The skew-normal conditional mean that decodes the scheme is
run only by the simulator and lives there (`montecarlo`). An
operating point is a `CoordPolicy` (P, rho) taken with the problem's
`ProblemParams`. The margin and the MMSE are float kernels of the unit
power p = P/Q, the noise ratio n = N/Q and u = 1 + rho, which keeps its
relative precision as rho -> -1, where coord's optimum often lies; the
public closed forms wrap them, and the optimizers call them directly. The
sign-conditioned entropies, the conditional variance and the covariances
they are built from only check these closed forms; they are test oracles
(tests/skew_oracles.py).

Psi is read from two Chebyshev series for |alpha| <= 500, generated from
30-digit mpmath by scripts/tables.py, and integrated by one quadrature per
magnitude above 500.

Numerical care: the skew integrands contain phi/Phi ratios whose denominator
underflows in the left tail; every such ratio is routed through mills_ratio
(built on erfcx, so the left tail needs no exp/log pair), and no integral is
silently truncated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EmptyFeasibleSet,
    NonConvergence,
    ProblemParams,
    power_split,
    require_finite,
)
from .numerics import (
    find_root,
    gauss_weighted_integral,
    integral_real_line,
    mills_ratio,
    minimize_1d,
)

__all__ = [
    "CoordPolicy",
    "entropy_reduction",
    "ic_feasible",
    "coord_ic_margin",
    "coord_mmse_at_rho",
    "mmse_coord",
    "coord_min_power",
]

_LN2 = math.log(2.0)

# Rounding slack of the feasibility test: a margin this far below 0 is a
# point on the constraint boundary, which is achievable.
_IC_TOL = 1e-12

# x-tolerances of the coord optimizer, which searches u = 1 + rho; being
# absolute, each is the same tolerance in rho. The bounded search for the
# peak IC margin stops at its first positive margin and otherwise only has
# to land inside the feasible interval, while the edge root-find sets rho*
# and with it S.
PEAK_RHO_TOL = 1e-5
EDGE_RHO_TOL = 1e-12


@dataclass(frozen=True)
class CoordPolicy:
    """Hybrid-scheme input: power P and correlation rho with the state.

    The input is rho sqrt(P/Q) X0 + W, with W independent of the state X0
    and of power P(1 - rho^2) (see `power_split`). Requires finite values,
    P >= 0 and -1 <= rho <= 1; the functions that take a policy with a
    `ProblemParams` also require P <= Q.
    """

    P: float
    rho: float

    def __post_init__(self) -> None:
        require_finite(P=self.P, rho=self.rho)
        if self.P < 0.0:
            raise ValueError(f"P={self.P} must be nonnegative")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho={self.rho} outside [-1, 1]")

    def unit_power(self, params: ProblemParams) -> float:
        """P/Q in the problem `params`; raises ValueError unless P <= Q."""
        return _unit_power(self.P, params)


def _unit_power(P: float, params: ProblemParams) -> float:
    """P/Q in the problem `params`; raises ValueError unless 0 <= P <= Q."""
    if P > params.Q:
        raise ValueError(f"P={P} outside [0, Q={params.Q}]")
    return params.unit_power(P)


# Chebyshev coefficients of h1 and h2 on [0, 1], of sum_k c_k T_k(2e - 1)
# with c_0 halved: Psi = e h1(e) at e = alpha^2 for |alpha| <= 1, and
# Psi = 1 - h2(e)/|alpha| at e = 1/alpha^2 above. Generated from 30-digit
# mpmath by scripts/tables.py, which also checks them (--check).
_H1 = (
    0.3567195400619627,
    -0.08857054970913567,
    0.011973242962989312,
    -0.0016796951792593779,
    0.00024030356728066638,
    -3.479404958862678e-05,
    5.085115722181197e-06,
    -7.507775352336508e-07,
    1.1242337007921735e-07,
    -1.7186258854791606e-08,
    2.7022715327274436e-09,
    -4.391871709196305e-10,
    7.362489436154367e-11,
    -1.2568782238307847e-11,
    2.1308333657969844e-12,
    -3.446378452143523e-13,
    4.9574200529267827e-14,
    -5.286345986494351e-15,
    3.052804345404589e-17,
    1.8637329843029463e-16,
    -6.05943225987036e-17,
    9.879115967278364e-18,
    8.518222640916121e-19,
    -1.4165810085423581e-18,
    6.916869210730072e-19,
    -2.4565457580135514e-19,
    6.788864119097617e-20,
)
_H2 = (
    0.8589191266882533,
    -0.15592784884748073,
    0.021084776646496935,
    -0.0031540315622707793,
    0.000493628051514075,
    -7.921996724881639e-05,
    1.2914370057961144e-05,
    -2.127595542564071e-06,
    3.531435935421679e-07,
    -5.893985857529753e-08,
    9.878480097792816e-09,
    -1.661093771656261e-09,
    2.800477079495842e-10,
    -4.731396126271938e-11,
    8.007618410468762e-12,
    -1.3572143687183217e-12,
    2.3031683442868017e-13,
    -3.9125166335311436e-14,
    6.6523676817760494e-15,
    -1.1319668517032182e-15,
    1.9274607159170542e-16,
    -3.283944605859889e-17,
    5.5980190716946995e-18,
    -9.547184540719357e-19,
    1.62887197766247e-19,
    -2.7778711009404036e-20,
    4.608419744813848e-21,
)

# Psi comes from the series up to this magnitude and from the quadrature
# above it, where the quadrature still misses the transition of width
# 1/alpha at x = 0 (wrong from about 520 on; ROADMAP item 1)
_SERIES_MAX = 500.0


def _clenshaw(coeffs: tuple[float, ...], t):
    """sum_k coeffs[k] T_k(t) for a float or an array t; NumPy's chebval costs ~95 us a call.

    Only + - * in one fixed order, so each element of an array t gives the
    float call's value bit for bit.
    """
    t2 = t + t
    b1 = b2 = 0.0
    for c in coeffs[:0:-1]:
        b1, b2 = c + t2 * b1 - b2, b1
    return coeffs[0] + t * b1 - b2


def _psi_inner(a):
    """Psi at magnitudes 0 <= a <= 1, a float or an array, from h1; exactly 0.0 at 0."""
    e = a * a
    return e * _clenshaw(_H1, e + e - 1.0)


def _psi_outer(a):
    """Psi at magnitudes 1 < a <= _SERIES_MAX, a float or an array, from h2."""
    e = 1.0 / (a * a)
    return 1.0 - _clenshaw(_H2, e + e - 1.0) / a


def _psi_series(a: float) -> float:
    """Psi at a magnitude 0 <= a <= _SERIES_MAX from the two series; exactly 0.0 at 0."""
    return _psi_inner(a) if a <= 1.0 else _psi_outer(a)


def _psi_integrand(x, alpha):
    """t log2 t with t = 2 Phi(alpha x), evaluated through the log CDF.

    t -> 0 makes t log2 t -> 0; where t underflows to 0, the log is replaced
    by 0 so the product is an exact 0.0 rather than 0 * (-inf) = nan.
    """
    # imported here, so that starting the CLI does not load SciPy
    from scipy.special import log_ndtr

    l = log_ndtr(alpha * x)
    t = 2.0 * np.exp(l)
    return t * (np.where(t > 0.0, l, 0.0) + _LN2) / _LN2


def _psi(a: float) -> float:
    """Psi at a magnitude a >= 0: the series up to _SERIES_MAX, else one quadrature.

    A NaN magnitude raises ValueError, and a NonConvergence of the
    quadrature is raised again naming the magnitude.
    """
    if a <= _SERIES_MAX:
        return _psi_series(a)
    if a == math.inf:
        return 1.0
    if math.isnan(a):
        raise ValueError("alpha must not be NaN")
    try:
        return gauss_weighted_integral(lambda x: _psi_integrand(x, a))
    except NonConvergence as exc:
        raise NonConvergence(f"Psi at alpha={a!r}: {exc}") from exc


def entropy_reduction(alpha):
    """Entropy deficit Psi(alpha) of a skew normal with skewness alpha, in bits.

    Psi(alpha) = int 2 Phi(alpha x) log2(2 Phi(alpha x)) phi(x) dx. Even in
    alpha, Psi(0) = 0, and Psi -> 1 as |alpha| -> inf. Accepts a scalar or
    an array: Psi is evaluated at |alpha|, so Psi(-alpha) == Psi(alpha)
    exactly, and 0 and +-inf give exactly 0.0 and 1.0; NaN raises
    ValueError, before any work is done. Magnitudes up to 500 are read from
    two Chebyshev series, within 1e-15 of 30-digit mpmath: an array is one
    pass over its elements per series, equal bit for bit to the float calls.
    Each magnitude above 500 is one quadrature, element by element. A float
    gives a float without passing through NumPy; a 0-d array gives a float.
    """
    if isinstance(alpha, float):
        return _psi(math.fabs(alpha))
    mag = np.abs(np.asarray(alpha, dtype=float))
    if np.isnan(mag).any():
        raise ValueError("alpha must not be NaN")
    out = np.empty(mag.shape)
    inner = mag <= 1.0
    outer = ~inner & (mag <= _SERIES_MAX)
    far = ~(inner | outer)
    out[inner] = _psi_inner(mag[inner])
    out[outer] = _psi_outer(mag[outer])
    out[far] = [_psi(a) for a in mag[far].tolist()]
    return float(out) if out.ndim == 0 else out


def ic_feasible(ic_bits: float) -> bool:
    """Feasibility predicate on an information-constraint margin in bits.

    True iff ic_bits >= -1e-12; the slack absorbs rounding at the boundary,
    which is achievable.
    """
    return ic_bits >= -_IC_TOL


def coord_ic_margin(policy: CoordPolicy, params: ProblemParams) -> float:
    """Information-constraint margin of the hybrid scheme, in bits.

    0.5 log2(1 + P(1-rho^2)/N) - Psi(sqrt(T/N)) + Psi(delta) - 1, where the
    trailing 1 is the one bit carried by the sign variable. The scheme is
    achievable iff the margin is >= 0. Returns -inf at the fully degenerate
    point where the interim state vanishes, and exactly -1.0, with no
    Psi evaluation, where no residual power is left (rho = +-1 or P = 0): there
    the capacity term is 0 and delta = sqrt(T/N), so the Psi terms cancel.
    Evaluated in units of Q; raises ValueError if P > Q.
    """
    return _ic_margin(policy.unit_power(params), params.n, 1.0 + policy.rho)


def _ic_margin(p: float, n: float, u: float) -> float:
    """The information-constraint margin in bits at unit power p, n = N/Q and u = 1 + rho.

    -inf where the interim state vanishes (s = 0), and exactly -1.0 with no
    Psi evaluation where no residual power is left. The skewness delta of
    the joint output/precoder pair is formed as sqrt(t/n + p_res r^2) with
    r = (t + n)/n/s, products that neither underflow to a zero divisor nor
    overflow.
    """
    s, p_res, t = power_split(p, 1.0, u)
    if s == 0.0:
        return -math.inf
    if p_res == 0.0:
        return -1.0
    r = (t + n) / n / s
    delta = math.sqrt(t / n + p_res * r * r)
    cap = 0.5 * math.log2(1.0 + p_res / n)
    return cap - entropy_reduction(math.sqrt(t / n)) + entropy_reduction(delta) - 1.0


def coord_mmse_at_rho(policy: CoordPolicy, params: ProblemParams) -> float:
    """Estimation cost of the hybrid scheme at a fixed correlation, in power units.

    Closed-form single integral
    (TN/(T+N)) (1 - (1/pi) sqrt(N/(2T+N)) * int phi(w)/Phi(kappa w) dw),
    kappa = sqrt(T/(2T+N)); the ratio in the integrand is rewritten as
    mills(kappa w) exp(-w^2 (1-kappa^2)/2), total on the whole line. With
    w = s v, s = sqrt(0.5/(1-kappa^2)) <= 1 (kappa^2 <= 1/2), the Gaussian
    factor is exp(-v^2/4) at every kappa, so the quadrature sees one decay
    scale. Evaluated in units of Q and scaled back; raises ValueError if P > Q.
    """
    return params.Q * _coord_mmse(policy.unit_power(params), params.n, 1.0 + policy.rho)


def _coord_mmse(p: float, n: float, u: float) -> float:
    """The hybrid scheme's estimation cost in units of Q at unit power p, n = N/Q and u = 1 + rho.

    See `coord_mmse_at_rho` for the integral and its change of variable.
    """
    t = power_split(p, 1.0, u)[2]
    if t == 0.0:
        return 0.0
    # n times a ratio <= 1: the product t n goes subnormal at tiny n
    sig2 = n * (t / (t + n))
    kap2 = t / (2.0 * t + n)
    s = math.sqrt(0.5 / (1.0 - kap2))
    ks = math.sqrt(kap2) * s

    def f(v):
        v = np.asarray(v, dtype=float)
        return mills_ratio(ks * v) * np.exp(-0.25 * v * v)

    g = s * integral_real_line(f)
    return sig2 * (1.0 - (1.0 / math.pi) * math.sqrt(n / (2.0 * t + n)) * g)


def _one_bit_u(p: float, n: float) -> float | None:
    """The u = 1 + rho < 1 at which the capacity term is one bit; None where 3N >= P.

    There P(1 - rho^2) = 3N. u is x/(1 + sqrt(1 - x)) with x = 3n/p: nothing
    cancels, and a float u holds the point however small x is.
    """
    x = 3.0 * n / p
    return x / (1.0 + math.sqrt(1.0 - x)) if x < 1.0 else None


def mmse_coord(P: float, params: ProblemParams) -> tuple[float, float]:
    """Minimal hybrid-scheme estimation cost at power P, and its correlation.

    The optimizer works in u = 1 + rho, in [0, 2], which keeps its relative
    precision at the rho -> -1 end where the optimum often lies.
    coord_mmse_at_rho depends on u only through T = s^2 + P u (2 - u), which
    increases with u, and it increases with T; the correlations with a
    nonnegative information-constraint margin are taken to form one
    interval. (At P = Q they do not: the margin is also >= 0 next to u = 0,
    where the interim state vanishes, and the edge found may be that of the
    interval to its right.) The optimum is therefore the left edge of that
    interval, and any u_hi with a feasible margin brackets it in [0, u_hi],
    since the margin at u = 0 is -1. Where 3N < P, u_hi is first the one-bit
    point x/(1 + sqrt(1 - x)), x = 3N/P, where P(1 - rho^2) = 3N: there the
    capacity term is one bit and Psi(delta) >= Psi(sqrt(T/N)), so its margin
    is >= 0 up to rounding, and one margin decides with no search. Where
    that point does not exist or reads infeasible after rounding, a bounded
    maximization of the margin over u stops at the first u_hi with a
    positive margin, or runs to the peak, which decides feasibility and
    gives u_hi = u_peak. A bracketing root-find of the margin on [0, u_hi]
    then gives the edge u*: it stops at the first point whose margin is
    within the feasibility slack of 0, and its result is stepped right
    (never past u_hi) if rounding left it infeasible. The x-tolerances,
    PEAK_RHO_TOL and EDGE_RHO_TOL, are absolute, so they are the same in u
    as in rho. Each margin is evaluated once per call (a memo serves the
    root-find's second read of u_hi), and at u = 0 it evaluates no Psi; a
    NonConvergence of a Psi quadrature is raised again naming rho.
    Returns (coord_mmse_at_rho at u*, rho* = u* - 1). Raises
    EmptyFeasibleSet when no correlation lets the channel carry the one-bit
    sign; at P = 0 this is immediate, since with no residual power the
    margin is -1 for every rho. Raises ValueError if P > Q.
    """
    p, n = _unit_power(P, params), params.n
    if p == 0.0:
        raise EmptyFeasibleSet("coord infeasible at P=0: the IC margin is -1 for every rho")

    memo: dict[float, float] = {}

    def margin(u: float) -> float:
        # clamped to -1, the margin's floor wherever it is finite, so that
        # the -inf where the interim state vanishes (P = Q, u = 0) can end
        # the root-find's bracket
        if u not in memo:
            try:
                memo[u] = max(_ic_margin(p, n, u), -1.0)
            except NonConvergence as exc:
                raise NonConvergence(f"IC margin at rho={u - 1.0!r}: {exc}") from exc
        return memo[u]

    u_hi = _one_bit_u(p, n)
    if u_hi is None or not ic_feasible(margin(u_hi)):
        u_hi, neg = minimize_1d(lambda u: -margin(u), 0.0, 2.0, PEAK_RHO_TOL, stop=0.0)
        if not ic_feasible(-neg):
            raise EmptyFeasibleSet(
                f"coord infeasible at P={P}: peak IC margin {-neg:.6g} bits at rho={u_hi - 1.0:.6g}"
            )

    def edge_margin(u: float) -> float:
        # 0.0 inside the feasibility slack, so that Brent stops at the first
        # point it finds on the constraint boundary
        m = margin(u)
        return 0.0 if abs(m) <= _IC_TOL else m

    u = find_root(edge_margin, 0.0, u_hi, EDGE_RHO_TOL) if margin(u_hi) > 0.0 else u_hi
    step = 1e-12
    while not ic_feasible(margin(u)):
        u = min(u + step, u_hi)
        step *= 2.0
    try:
        return params.Q * _coord_mmse(p, n, u), u - 1.0
    except NonConvergence as exc:
        raise NonConvergence(f"MMSE integral at rho={u - 1.0!r}: {exc}") from exc


def coord_min_power(params: ProblemParams) -> float:
    """Smallest power at which the hybrid scheme is feasible.

    The root in P of the peak information-constraint margin over u = 1 + rho,
    the quantity mmse_coord tests for feasibility; at P = 0 the margin is -1.
    The root-find runs on P/Q in [0, min(1, 3N/Q)], in units of Q, and stops
    at 1e-12: the peak margin is >= 0 at every P >= 3N, where the channel
    carries one bit at rho = -sqrt(1 - 3N/P). Where the peak at 3N/Q does not
    read positive after rounding, the root-find runs on [0, 1]. Raises
    EmptyFeasibleSet when the scheme is infeasible even at P = Q.
    """
    n = params.n

    def peak(p: float) -> float:
        if p == 0.0:
            return -1.0
        return -minimize_1d(lambda u: -_ic_margin(p, n, u), 0.0, 2.0, PEAK_RHO_TOL)[1]

    hi = min(1.0, 3.0 * n)
    top = peak(hi)
    if top <= 0.0 and hi < 1.0:
        hi, top = 1.0, peak(1.0)
    if not ic_feasible(top):
        raise EmptyFeasibleSet(
            f"coord infeasible at every power: peak IC margin {top:.6g} bits at P=Q"
        )
    if top <= 0.0:
        return params.Q
    return params.Q * find_root(peak, 0.0, hi, 1e-12)
