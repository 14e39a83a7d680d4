"""Shared domain types, parameter validation and the numerical errors.

Holds only what the strategy families, the simulators and the CLI use. The
correlation triple of the jointly Gaussian policy, and the errors of the
proofs' building blocks, live with those blocks in the test oracles
(tests/gaussian_oracles.py, tests/skew_oracles.py).

Conventions used throughout the package:

* all variances and costs are dimensionless reals in double precision,
* every information quantity is measured in bits (log base 2),
* value types are frozen dataclasses and safe to share between threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "WitsenhausenError",
    "NonConvergence",
    "EmptyFeasibleSet",
    "ProblemParams",
    "CurvePoint",
    "EmpiricalCost",
    "validate_params",
    "require_finite",
    "power_split",
]


class WitsenhausenError(Exception):
    """Base class of the numerical failures this package raises; bad input raises ValueError."""


class NonConvergence(WitsenhausenError):
    """A quadrature or a 1-D solver did not reach its tolerance, met a NaN or had no bracket."""


class EmptyFeasibleSet(WitsenhausenError):
    """A constrained minimization found no feasible point."""


@dataclass(frozen=True)
class ProblemParams:
    """Scalar Gaussian control problem: state variance Q and channel-noise variance N.

    Costs satisfy S(P; Q, N) = Q S(P/Q; 1, N/Q): the closed forms see only
    p = `unit_power(P)` and n = N/Q, and the public functions scale back by Q.
    """

    Q: float
    N: float
    n: float = field(init=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.Q < math.inf and 0.0 < self.N < math.inf
                and 0.0 < self.N / self.Q < math.inf):
            raise ValueError(
                "both variances and the ratio N/Q must be positive and finite, "
                f"got Q={self.Q}, N={self.N}"
            )
        object.__setattr__(self, "n", self.N / self.Q)

    def unit_power(self, P: float) -> float:
        """P/Q; raises ValueError unless it is nonnegative and finite."""
        p = P / self.Q
        if not 0.0 <= p < math.inf:
            raise ValueError(f"P must be nonnegative and finite, got P={P}, P/Q={p}")
        return p


def validate_params(Q: float, N: float) -> ProblemParams:
    """Validate (Q, N) and return the problem parameters.

    Raises ValueError unless Q, N and N/Q are positive and finite.
    """
    return ProblemParams(float(Q), float(N))


def require_finite(**values: float) -> None:
    """Raise ValueError naming each of the keyword values that is not a finite number."""
    bad = [f"{name}={value}" for name, value in values.items() if not math.isfinite(value)]
    if bad:
        raise ValueError("must be finite: " + ", ".join(bad))


def power_split(P: float, Q: float, rho: float) -> tuple[float, float, float]:
    """(s, p_res, t) of the input rho sqrt(P/Q) X0 + W, W independent of X0.

    p_res = P(1-rho^2) is the power of W, s = sqrt(Q) + rho sqrt(P) the scale
    of X0 in the interim state and t = s^2 + p_res = P + Q + 2 rho sqrt(PQ) its
    variance. s is formed as (Q-P)/(sqrt(Q)+sqrt(P)) + (1+rho) sqrt(P): for
    P <= Q a sum of nonnegative terms, so nothing cancels as rho -> -1, P -> Q.
    The closed forms call it with Q = 1.
    """
    sp = math.sqrt(P)
    s = (Q - P) / (math.sqrt(Q) + sp) + (1.0 + rho) * sp
    p_res = P * (1.0 - rho) * (1.0 + rho)
    return s, p_res, s * s + p_res


@dataclass(frozen=True)
class CurvePoint:
    """One sample of a trade-off curve with per-point optimizer metadata.

    S is None at a power the family cannot realize, and note says why.
    """

    P: float
    S: float | None
    aux1: float | None = None
    aux2: float | None = None
    note: str = ""


@dataclass(frozen=True)
class EmpiricalCost:
    """Monte-Carlo estimate of (power, estimation cost) with standard errors."""

    power_mean: float
    power_stderr: float
    mmse_mean: float
    mmse_stderr: float
    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.power_stderr < 0.0 or self.mmse_stderr < 0.0:
            raise ValueError("standard errors must be nonnegative")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
