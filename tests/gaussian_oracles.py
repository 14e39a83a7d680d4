"""The proofs' Gaussian building blocks, kept as independent test oracles.

Test helpers only: the package computes the gaussian and dpc curves from
their closed forms, and these routes exist to check them. Entropies of
small jointly Gaussian vectors, the information-constraint margin and
conditional MMSE of the jointly Gaussian policy as functions of its
correlation triple, entropy behavior under component scaling, the capacity
of the state-dependent channel with a dirty-paper-coding input, and the
dirty-paper critical power as the root of its cubic.

Determinants of the (at most 4x4) covariance matrices are expanded by
cofactors rather than factorized, so the small closed forms reproduce exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from witsenhausen.core import ProblemParams, WitsenhausenError
from witsenhausen.numerics import find_root
from witsenhausen.strategies import optimal_rho_pair

_LOG2_2PIE = math.log2(2.0 * math.pi * math.e)
_EIG_TOL = 1e-12


class NegativeEffectiveVariance(WitsenhausenError):
    """An effective variance that must be nonnegative came out significantly negative."""


class InfeasibleRho(WitsenhausenError):
    """Correlation parameters outside the feasible region of the closed form."""


class ZeroScale(WitsenhausenError):
    """A multiplicative scale that must be nonzero is zero."""


class DegenerateChannel(WitsenhausenError):
    """State-dependent channel parameters make the capacity expression undefined."""


class DegenerateInput(WitsenhausenError):
    """Inputs collapse a distribution to a lower-dimensional (undefined) case."""


# Positive-semidefiniteness slack: correlation triples sitting exactly on the
# feasibility boundary (the constrained optimum does) may round slightly below 0.
PSD_TOL = 1e-12


@dataclass(frozen=True)
class CorrelationTriple:
    """Correlations (rho1, rho2, rho3) of jointly Gaussian (state, side variable, input).

    The associated 3x3 covariance is positive semidefinite iff
    1 - rho1^2 - rho2^2 - rho3^2 + 2 rho1 rho2 rho3 >= 0; triples within
    PSD_TOL below the boundary are accepted and clamped.
    """

    rho1: float
    rho2: float
    rho3: float

    def __post_init__(self) -> None:
        for name in ("rho1", "rho2", "rho3"):
            v = getattr(self, name)
            if not -1.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [-1, 1]")
        if self._raw_det_factor() < -PSD_TOL:
            raise ValueError(
                "correlations are not jointly realizable: "
                f"det factor {self._raw_det_factor():.3e} < -{PSD_TOL}"
            )

    def _raw_det_factor(self) -> float:
        r1, r2, r3 = self.rho1, self.rho2, self.rho3
        return 1.0 - r1 * r1 - r2 * r2 - r3 * r3 + 2.0 * r1 * r2 * r3

    @property
    def det_factor(self) -> float:
        """Scale-free determinant of the 3x3 covariance, clamped at 0."""
        return max(self._raw_det_factor(), 0.0)

    def covariance(self, Q: float, P: float, V: float = 1.0):
        """3x3 covariance of (state, side variable, input) with variances (Q, V, P)."""
        r1, r2, r3 = self.rho1, self.rho2, self.rho3
        return np.array(
            [
                [Q, r1 * math.sqrt(Q * V), r2 * math.sqrt(Q * P)],
                [r1 * math.sqrt(Q * V), V, r3 * math.sqrt(V * P)],
                [r2 * math.sqrt(Q * P), r3 * math.sqrt(V * P), P],
            ]
        )


def optimal_rho_triple(P: float, params: ProblemParams) -> CorrelationTriple:
    """The package's optimal Gaussian correlations as a triple, with rho3 = 0."""
    return CorrelationTriple(*optimal_rho_pair(P, params), 0.0)


def dpc_critical_power(params: ProblemParams) -> float:
    """Power above which dirty-paper coding drives the estimation cost to zero.

    The unique positive root of P^2 (P + Q + N) = Q N^2. It lies below N (the
    left side exceeds the right there by 2 N^3), and the bracket and the
    tolerance scale with N, so the root scales with the variances.
    """
    Q, N = params.Q, params.N
    return find_root(lambda p: p * p * (p + Q + N) - Q * N * N, 0.0, N, tol=1e-15 * N)


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
