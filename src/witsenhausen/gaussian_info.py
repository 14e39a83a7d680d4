"""Information measures of jointly Gaussian vectors and the Gaussian policy family.

Covers the building blocks of the optimal jointly-Gaussian scheme: entropies
of small Gaussian vectors, the information-constraint margin and conditional
MMSE as functions of the correlation triple, the closed-form optimal
correlations, entropy behavior under component scaling, and the capacity of
the state-dependent channel with a dirty-paper-coding input.

Determinants of the (at most 4x4) covariance matrices are expanded by
cofactors rather than factorized, so the small closed forms reproduce exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CorrelationTriple,
    DegenerateChannel,
    InfeasibleRho,
    NegativeEffectiveVariance,
    ProblemParams,
    RegimeNotApplicable,
    ZeroScale,
)

__all__ = [
    "GaussianVector",
    "StateChannelParams",
    "gaussian_entropy_bits",
    "gaussian_policy_ic",
    "gaussian_policy_mmse",
    "optimal_rho2",
    "optimal_rho_triple",
    "timeshare_interval",
    "scaled_component_entropy",
    "state_dep_ic",
    "dirty_paper_capacity_bits",
    "quantization_rate_bits",
    "ic_feasible",
]

_LOG2_2PIE = math.log2(2.0 * math.pi * math.e)
_EIG_TOL = 1e-12
_IC_TOL = 1e-12


def _cofactor_det(m: np.ndarray) -> float:
    """Determinant by explicit cofactor expansion along the first row (k <= 4)."""
    k = m.shape[0]
    if k == 1:
        return float(m[0, 0])
    if k == 2:
        return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    sign = 1.0
    det = 0.0
    for j in range(k):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        det += sign * float(m[0, j]) * _cofactor_det(minor)
        sign = -sign
    return det


@dataclass(frozen=True)
class GaussianVector:
    """A centered jointly Gaussian vector given by its covariance (k <= 4)."""

    cov: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        c = np.asarray(self.cov, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("covariance must be a square matrix")
        if c.shape[0] > 4:
            raise ValueError("only vectors of dimension <= 4 are supported")
        scale = max(1.0, float(np.max(np.abs(c))))
        if not np.allclose(c, c.T, atol=1e-12 * scale):
            raise ValueError("covariance must be symmetric")
        c = 0.5 * (c + c.T)
        eig = np.linalg.eigvalsh(c)
        if eig.min() < -_EIG_TOL * scale:
            raise ValueError(f"covariance not PSD: min eigenvalue {eig.min():.3e}")
        if eig.min() < 0.0:
            w, v = np.linalg.eigh(c)
            c = (v * np.clip(w, 0.0, None)) @ v.T
            c = 0.5 * (c + c.T)
        object.__setattr__(self, "cov", c)
        if self.labels is not None and len(self.labels) != c.shape[0]:
            raise ValueError("labels must match the dimension")

    @property
    def dim(self) -> int:
        return self.cov.shape[0]


def gaussian_entropy_bits(g: GaussianVector) -> float:
    """Differential entropy 0.5 log2((2 pi e)^k det(cov)) in bits.

    Returns -inf for a singular covariance (det <= 0).
    """
    det = _cofactor_det(g.cov)
    if det <= 0.0:
        return -math.inf
    return 0.5 * (g.dim * _LOG2_2PIE + math.log2(det))


def gaussian_policy_ic(rho: CorrelationTriple, P: float, params: ProblemParams) -> float:
    """Information-constraint margin of the jointly Gaussian policy, in bits.

    0.5 log2((P/N) (1 - rho1^2 - rho2^2 - rho3^2 + 2 rho1 rho2 rho3) + 1 - rho1^2);
    the policy is achievable iff this is >= 0. Returns -inf when the argument
    of the log is not positive. Does not depend on the side-variable variance.
    """
    arg = (P / params.N) * rho.det_factor + (1.0 - rho.rho1 * rho.rho1)
    if arg <= 0.0:
        return -math.inf
    return 0.5 * math.log2(arg)


def gaussian_policy_mmse(rho: CorrelationTriple, P: float, params: ProblemParams) -> float:
    """Conditional MMSE of the interim state under the jointly Gaussian policy.

    N * s / (N + s) with the effective variance
    s = Q (1 - rho1^2) + P (1 - rho3^2) + 2 sqrt(QP) (rho2 - rho1 rho3).
    """
    Q, N = params.Q, params.N
    s = (
        Q * (1.0 - rho.rho1 * rho.rho1)
        + P * (1.0 - rho.rho3 * rho.rho3)
        + 2.0 * math.sqrt(Q * P) * (rho.rho2 - rho.rho1 * rho.rho3)
    )
    if s < -1e-12:
        raise NegativeEffectiveVariance(f"effective variance {s:.3e} < 0")
    s = max(s, 0.0)
    return N * s / (N + s)


def optimal_rho2(rho1: float, rho3: float, P: float, N: float) -> float:
    """Input-state correlation that makes the information constraint tight.

    rho1 rho3 - sqrt((1 - rho1^2)(1 - rho3^2) - (N/P) rho1^2); raises
    InfeasibleRho when the radicand is negative beyond rounding slack.
    """
    if P <= 0.0:
        raise ValueError("P must be positive")
    radicand = (1.0 - rho1 * rho1) * (1.0 - rho3 * rho3) - (N / P) * rho1 * rho1
    if radicand < -1e-12:
        raise InfeasibleRho(f"radicand {radicand:.3e} < 0 for rho1={rho1}, rho3={rho3}")
    return rho1 * rho3 - math.sqrt(max(radicand, 0.0))


def timeshare_interval(params: ProblemParams) -> tuple[float, float]:
    """Power interval where time sharing between two linear gains is optimal.

    (Q - 2N -+ sqrt(Q(Q-4N))) / 2; only defined for Q > 4N.
    """
    Q, N = params.Q, params.N
    if Q <= 4.0 * N:
        raise RegimeNotApplicable(f"requires Q > 4N, got Q={Q}, N={N}")
    s = math.sqrt(Q * (Q - 4.0 * N))
    return 0.5 * (Q - 2.0 * N - s), 0.5 * (Q - 2.0 * N + s)


def optimal_rho_triple(P: float, params: ProblemParams) -> CorrelationTriple:
    """Optimal correlations of the Gaussian policy for power P.

    Inside the regime Q > 4N with P between the two time-sharing powers the
    optimum is the nontrivial correlated triple; everywhere else it collapses
    to the pure state contraction (0, -1, 0).
    """
    Q, N = params.Q, params.N
    if not 0.0 <= P <= Q:
        raise ValueError(f"P={P} outside [0, Q]")
    if Q > 4.0 * N:
        p_lo, p_hi = timeshare_interval(params)
        if p_lo <= P <= p_hi:
            rho1 = math.sqrt(max((P * Q - (P + N) ** 2) / (Q * (P + N)), 0.0))
            rho2 = -(P + N) / math.sqrt(P * Q)
            return CorrelationTriple(rho1, max(rho2, -1.0), 0.0)
    return CorrelationTriple(0.0, -1.0, 0.0)


def scaled_component_entropy(g: GaussianVector, component: int, beta: float) -> float:
    """Entropy in bits after scaling one component by beta.

    Equals gaussian_entropy_bits(g) + log2|beta|, since scaling one coordinate
    multiplies the covariance determinant by beta^2.
    """
    if beta == 0.0:
        raise ZeroScale("scale factor must be nonzero")
    if not 0 <= component < g.dim:
        raise ValueError(f"component {component} out of range for dim {g.dim}")
    d = np.ones(g.dim)
    d[component] = beta
    scaled = g.cov * np.outer(d, d)
    return gaussian_entropy_bits(GaussianVector(scaled, g.labels))


@dataclass(frozen=True)
class StateChannelParams:
    """Gaussian state-dependent channel with a correlated side variable.

    State variance q, side-variable variance v, their correlation mu, input
    power P0, dirty-paper coefficient alpha, and noise variance N.
    """

    q: float
    v: float
    mu: float
    P0: float
    alpha: float
    N: float

    def __post_init__(self) -> None:
        if min(self.q, self.v, self.P0, self.N) < 0.0:
            raise ValueError("variances and powers must be nonnegative")
        if not -1.0 <= self.mu <= 1.0:
            raise ValueError(f"mu={self.mu} outside [-1, 1]")


def state_dep_ic(p: StateChannelParams) -> float:
    """Rate of the precoded input over the state-dependent channel, in bits.

    0.5 log2(P0 (q(1-mu^2) + P0 + N) / (P0 N + q(1-mu^2)((1-alpha)^2 P0 + alpha^2 N))).
    At alpha = P0/(P0+N) this reaches 0.5 log2(1 + P0/N): the known state costs
    nothing. Raises DegenerateChannel when the denominator is not positive;
    returns -inf when the numerator vanishes.
    """
    q1m = p.q * (1.0 - p.mu * p.mu)
    num = p.P0 * (q1m + p.P0 + p.N)
    den = p.P0 * p.N + q1m * ((1.0 - p.alpha) ** 2 * p.P0 + p.alpha**2 * p.N)
    if den <= 0.0:
        raise DegenerateChannel(f"denominator {den:.3e} <= 0")
    if num <= 0.0:
        return -math.inf
    return 0.5 * math.log2(num / den)


def dirty_paper_capacity_bits(
    rho: CorrelationTriple, P: float, params: ProblemParams
) -> float:
    """Rate achieved by the Gaussian policy's precoded residual input, in bits.

    0.5 log2(1 + P0/N) with the residual power P0 = P * det_factor / (1 - rho1^2).
    Feasibility of the whole scheme is exactly this rate exceeding the state
    quantization rate, which rearranges to gaussian_policy_ic >= 0.
    """
    r1sq = rho.rho1 * rho.rho1
    if r1sq >= 1.0:
        return math.inf
    p0 = P * rho.det_factor / (1.0 - r1sq)
    return 0.5 * math.log2(1.0 + p0 / params.N)


def quantization_rate_bits(rho1: float) -> float:
    """Rate I(state; side variable) = 0.5 log2(1 / (1 - rho1^2)) in bits."""
    r1sq = rho1 * rho1
    if r1sq >= 1.0:
        return math.inf
    return 0.5 * math.log2(1.0 / (1.0 - r1sq))


def ic_feasible(ic_bits: float) -> bool:
    """Feasibility predicate on an information-constraint margin in bits.

    True iff ic_bits >= -1e-12; the slack absorbs rounding at the boundary,
    which is achievable.
    """
    return ic_bits >= -_IC_TOL
