"""The hybrid scheme's skew-normal building blocks and independent quadrature routes.

Test helpers only: the package computes the information-constraint margin
through coord_ic_margin and the estimation cost through coord_mmse_at_rho,
and these routes exist to check them. The sign-conditioned entropies, the
conditional variance and the covariances of the scheme's Gaussian pairs
are the proofs' building blocks; the two quadratures are a second route to
the cost and to the term its closed form drops. They integrate with
SciPy's QUADPACK over the real line, with integrands built from math.erfc
and math.exp, so they share no code with the package's quadrature engine
or its Mills ratio.
"""
import math

import numpy as np
from scipy.integrate import quad

from witsenhausen.numerics import mills_ratio
from witsenhausen.core import ProblemParams
from witsenhausen.skewnormal import CoordPolicy, entropy_reduction

from gaussian_oracles import DegenerateInput


def _scales(policy: CoordPolicy, params: ProblemParams) -> tuple[float, float, float, float]:
    """(s, p_res, T, d2) in the variances' own units, from the formulas in rho.

    s = sqrt(Q) + rho sqrt(P) scales the state in the interim state,
    p_res = P(1 - rho^2) is the residual power, T = s^2 + p_res, and d2, the
    skewness of the joint output/precoder pair, is
    sqrt(T/N + p_res ((T + N)/(N s))^2), infinite where s = 0.
    """
    P, Q, N, rho = policy.P, params.Q, params.N, policy.rho
    s = math.sqrt(Q) + rho * math.sqrt(P)
    p_res = P * (1.0 - rho * rho)
    t = s * s + p_res
    d2 = math.sqrt(t / N + p_res * ((t + N) / (N * s)) ** 2) if s else math.inf
    return s, p_res, t, d2


def sign_conditioned_entropies(
    policy: CoordPolicy, params: ProblemParams
) -> tuple[float, float, float]:
    """The three conditional entropies of the hybrid scheme given the sign, in bits.

    Returns (h(state, precoder | sign), h(output | sign), h(output, precoder | sign)).
    Conditioning a centered Gaussian on a sign costs exactly one bit for the
    joint with the state, and a Psi correction for the skewed pairs.
    """
    s, p_res, t, d2 = _scales(policy, params)
    if p_res <= 0.0 or s == 0.0:
        raise DegenerateInput(
            f"degenerate hybrid scheme: residual power {p_res}, state scale {s}"
        )
    n = params.N
    h_state_prec = 0.5 * math.log2(
        (2.0 * math.pi * math.e) ** 2 * params.Q * p_res
    ) - 1.0
    h_out = 0.5 * math.log2(2.0 * math.pi * math.e * (t + n)) - entropy_reduction(
        math.sqrt(t / n)
    )
    h_out_prec = 0.5 * math.log2(
        (2.0 * math.pi * math.e) ** 2 * (t + n) * n * p_res / (p_res + n)
    ) - entropy_reduction(d2)
    return h_state_prec, h_out, h_out_prec


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


def cov_state_precoder(policy: CoordPolicy, params: ProblemParams) -> np.ndarray:
    """Covariance of (state, precoder variable) for the hybrid scheme.

    Its determinant is P Q (1 - rho^2) regardless of the noise level.
    """
    s, p_res, _, _ = _scales(policy, params)
    q = params.Q
    c = (p_res / (p_res + params.N)) * (s / math.sqrt(q))
    return np.array(
        [
            [q, c * q],
            [c * q, p_res + c * c * q],
        ]
    )


def cov_interim_output_precoder(policy: CoordPolicy, params: ProblemParams) -> np.ndarray:
    """Covariance of (interim state, output, precoder variable) for the hybrid scheme."""
    s, p_res, t, _ = _scales(policy, params)
    n = params.N
    a = p_res * (t + n) / (p_res + n)
    w_var = p_res + (p_res * s / (p_res + n)) ** 2
    return np.array(
        [
            [t, t, a],
            [t, t + n, a],
            [a, a, w_var],
        ]
    )


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _Phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _real_line(f) -> float:
    """Integral of the scalar function f over the real line by scipy.integrate.quad."""
    return quad(f, -math.inf, math.inf, epsabs=1e-14, epsrel=1e-13)[0]


def mmse_via_conditional_density(policy: CoordPolicy, params: ProblemParams) -> float:
    """Estimation cost as the conditional variance averaged over the output density.

    Independent route used to cross-check coord_mmse_at_rho: integrates the
    conditional variance (TN/(T+N)) (1 - u m(u) - m(u)^2), m = phi/Phi, of the
    output standardized by sqrt(T+N) to s, with u = sqrt(T/N) s, against the
    skew-normal density 2 Phi(u) phi(s). Where Phi(u) underflows to 0 the
    density, and with it the integrand, is 0.
    """
    t, n = _scales(policy, params)[2], params.N
    if t == 0.0:
        return 0.0
    sig2 = t * n / (t + n)
    d1 = math.sqrt(t / n)

    def f(s):
        u = d1 * s
        cdf = _Phi(u)
        if cdf == 0.0:
            return 0.0
        m = _phi(u) / cdf
        var = min(max(sig2 * (1.0 - u * m - m * m), 0.0), sig2)
        return var * 2.0 * cdf * _phi(s)

    return _real_line(f)


def dropped_odd_term(policy: CoordPolicy, params: ProblemParams) -> float:
    """The u m(u) cross term of the conditional variance, averaged over the output.

    Analytically zero (the integrand reduces to an odd function); evaluated
    literally as a check that dropping it from the closed form is sound.
    """
    t, n = _scales(policy, params)[2], params.N
    if t == 0.0:
        return 0.0
    d1 = math.sqrt(t / n)

    def f(s):
        u = d1 * s
        cdf = _Phi(u)
        if cdf == 0.0:
            return 0.0
        return u * (_phi(u) / cdf) * 2.0 * cdf * _phi(s)

    return _real_line(f)
