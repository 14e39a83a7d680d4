"""Independent simulation oracle for the closed-form cost expressions.

Draws the state and channel noise, applies a scalar control policy together
with its closed-form optimal decoder, and estimates (power, estimation cost)
empirically. Everything is seeded and batched: batch b uses the Philox
counter-based stream jumped b times from the configured seed, and batch
moments are merged in batch order, so results are bit-identical for a given
config regardless of how batches are scheduled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EmpiricalCost, ProblemParams, power_split, require_finite
from .skewnormal import CoordParams, skew_cond_mean
from .strategies import LinearPolicy, TwoPointPolicy, two_point_decoder

__all__ = [
    "SimConfig",
    "RunningMoments",
    "simulate_linear",
    "simulate_two_point",
    "simulate_hybrid_conditional",
]


@dataclass(frozen=True)
class SimConfig:
    """Sample budget, RNG seed and batch size of one simulation run."""

    n_samples: int
    seed: int = 0
    batch_size: int = 1_000_000

    def __post_init__(self) -> None:
        require_finite(
            n_samples=self.n_samples, seed=self.seed, batch_size=self.batch_size
        )
        if self.n_samples < 1000:
            raise ValueError(
                f"n_samples={self.n_samples} too small: standard errors are "
                "meaningless below 1000"
            )
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


class RunningMoments:
    """Streaming mean and second central moment with pairwise batch merges.

    Per-batch statistics are reduced with the Welford/Chan merge formula, so
    accumulating 1e8 samples does not lose the small variance to cancellation.
    """

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add_batch(self, x: np.ndarray) -> None:
        bn = x.size
        if bn == 0:
            return
        bmean = float(np.mean(x))
        bm2 = float(np.sum((x - bmean) ** 2))
        delta = bmean - self.mean
        n = self.n + bn
        self.m2 += bm2 + delta * delta * self.n * bn / n
        self.mean += delta * bn / n
        self.n = n

    @property
    def stderr(self) -> float:
        if self.n < 2:
            return math.inf
        return math.sqrt(self.m2 / (self.n - 1) / self.n)


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(batch_index))


def _batch_sizes(cfg: SimConfig):
    full, rest = divmod(cfg.n_samples, cfg.batch_size)
    sizes = [cfg.batch_size] * full
    if rest:
        sizes.append(rest)
    return sizes


def _run(cfg: SimConfig, draw) -> EmpiricalCost:
    """Drive batches through `draw(rng, n) -> (power_samples, sq_err_samples)`."""
    power = RunningMoments()
    mmse = RunningMoments()
    for b, n in enumerate(_batch_sizes(cfg)):
        rng = _batch_rng(cfg.seed, b)
        p, s = draw(rng, n)
        power.add_batch(p)
        mmse.add_batch(s)
    return EmpiricalCost(
        power_mean=power.mean,
        power_stderr=power.stderr,
        mmse_mean=mmse.mean,
        mmse_stderr=mmse.stderr,
        n_samples=cfg.n_samples,
        seed=cfg.seed,
    )


def simulate_linear(
    policy: LinearPolicy, params: ProblemParams, cfg: SimConfig
) -> EmpiricalCost:
    """Empirical costs of an affine policy with its conditional-mean decoder.

    The decoder reads off the Gaussian conditional mean of the interim state:
    u2 = y (1+a)^2 Q / ((1+a)^2 Q + N) + b N / ((1+a)^2 Q + N).
    """
    Q, N = params.Q, params.N
    a, b = policy.a, policy.b
    g = (1.0 + a) ** 2 * Q
    gain = g / (g + N)
    offset = b * N / (g + N)

    def draw(rng, n):
        x0 = rng.standard_normal(n) * math.sqrt(Q)
        z = rng.standard_normal(n) * math.sqrt(N)
        u1 = a * x0 + b
        x1 = x0 + u1
        y = x1 + z
        u2 = y * gain + offset
        return u1 * u1, (x1 - u2) ** 2

    return _run(cfg, draw)


def simulate_two_point(
    policy: TwoPointPolicy, params: ProblemParams, cfg: SimConfig
) -> EmpiricalCost:
    """Empirical costs of the two-point policy with its tanh decoder."""
    Q, N = params.Q, params.N
    a = policy.a

    def draw(rng, n):
        x0 = rng.standard_normal(n) * math.sqrt(Q)
        z = rng.standard_normal(n) * math.sqrt(N)
        sign = np.where(x0 >= 0.0, 1.0, -1.0)
        u1 = a * sign - x0
        x1 = a * sign
        y = x1 + z
        u2 = two_point_decoder(y, a, N)
        return u1 * u1, (x1 - u2) ** 2

    return _run(cfg, draw)


def simulate_hybrid_conditional(
    cp: CoordParams, params: ProblemParams, cfg: SimConfig
) -> EmpiricalCost:
    """Empirical costs of the hybrid scheme with a genie-provided sign.

    Simulates the correlated input u1 = rho sqrt(P/Q) x0 + residual, hands the
    decoder the true sign of the interim state (the single-letter expression
    is defined under exactly this conditioning) and decodes with the
    skew-normal conditional mean.
    """
    Q, N = params.Q, params.N
    _, p_res, T = power_split(cp.P, Q, cp.rho)
    if T <= 0.0:
        raise ValueError("interim-state variance must be positive")
    lin_gain = cp.rho * math.sqrt(cp.P / Q)

    def draw(rng, n):
        x0 = rng.standard_normal(n) * math.sqrt(Q)
        resid = rng.standard_normal(n) * math.sqrt(p_res)
        z = rng.standard_normal(n) * math.sqrt(N)
        u1 = lin_gain * x0 + resid
        x1 = x0 + u1
        y = x1 + z
        w2 = np.where(x1 >= 0.0, 1.0, -1.0)
        # mirror the negative-sign half onto the positive-sign decoder
        u2 = w2 * skew_cond_mean(w2 * y, T, N)
        return u1 * u1, (x1 - u2) ** 2

    return _run(cfg, draw)
