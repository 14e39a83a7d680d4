"""Independent simulation oracle for the closed-form cost expressions.

Draws the state and channel noise, applies a scalar control policy together
with its closed-form optimal decoder, and estimates (power, estimation cost)
empirically. Everything is seeded and batched: batch b uses the Philox
counter-based stream jumped b times from the configured seed, and batch
moments are merged in batch order, so results are bit-identical for a given
config regardless of how batches are scheduled.

Batches run on a thread pool with one worker per CPU in the process's
affinity set; the random draws and the large-array arithmetic release the
GIL. Each worker reduces its batch to (n, mean, m2) of the power and of the
squared error, and only those numbers reach the merge. A batch holds about
three arrays of its size: the draws are scaled in place, the arithmetic
runs over CHUNK-long slices whose temporaries stay in cache, and the power
and squared error are written back over the drawn arrays and reduced there.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .core import EmpiricalCost, ProblemParams, power_split, require_finite
from .skewnormal import CoordParams, skew_cond_mean
from .strategies import LinearPolicy, TwoPointPolicy, two_point_decoder, two_point_power

__all__ = [
    "SimConfig",
    "RunningMoments",
    "simulate_linear",
    "simulate_two_point",
    "simulate_hybrid_conditional",
]

# Samples per slice of the elementwise arithmetic: the slice's temporaries
# stay in cache, and a batch holds little more than its drawn arrays.
CHUNK = 2**14


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

    def merge(self, bn: int, bmean: float, bm2: float) -> None:
        """Fold in the (n, mean, m2) of one batch, as `_moments` returns them."""
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


def _moments(x: np.ndarray) -> tuple[int, float, float]:
    """(n, mean, m2) of one batch, m2 the sum of squared deviations; overwrites x."""
    mean = float(np.mean(x))
    x -= mean
    np.square(x, out=x)
    return x.size, mean, float(np.sum(x))


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(batch_index))


def _batch_sizes(cfg: SimConfig):
    full, rest = divmod(cfg.n_samples, cfg.batch_size)
    sizes = [cfg.batch_size] * full
    if rest:
        sizes.append(rest)
    return sizes


def _worker_count(n_batches: int, batch_size: int) -> int:
    """Threads to run the batches on: one per CPU this process may use.

    Never more than there are batches, and one when a batch is shorter than
    a CHUNK: so little arithmetic cannot win back a thread's start-up.
    """
    if batch_size < CHUNK:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return min(n_batches, cpus)


def _run(cfg: SimConfig, scales: tuple[float, ...], step) -> EmpiricalCost:
    """Drive the batches of one simulation through `step`.

    Batch b draws one normal array per entry of `scales`, in that order, from
    `_batch_rng(seed, b)` and scales it in place. `step` maps CHUNK-long
    slices of the drawn arrays to the control u1 and the estimation error of
    each sample; their squares overwrite the first two arrays, which are then
    reduced in place to (n, mean, m2). Batches run on a thread pool and are
    merged in batch order, so the result does not depend on the worker count.
    """
    sizes = _batch_sizes(cfg)

    def batch(b: int):
        rng = _batch_rng(cfg.seed, b)
        draws = [rng.standard_normal(sizes[b]) for _ in scales]
        for x, scale in zip(draws, scales):
            x *= scale
        for lo in range(0, sizes[b], CHUNK):
            u1, err = step(*(x[lo : lo + CHUNK] for x in draws))
            np.square(u1, out=draws[0][lo : lo + CHUNK])
            np.square(err, out=draws[1][lo : lo + CHUNK])
        return _moments(draws[0]), _moments(draws[1])

    workers = _worker_count(len(sizes), cfg.batch_size)
    if workers == 1:
        stats = [batch(b) for b in range(len(sizes))]
    else:
        # imported here, so that starting the CLI does not load it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            stats = list(pool.map(batch, range(len(sizes))))
    power = RunningMoments()
    mmse = RunningMoments()
    for p, s in stats:
        power.merge(*p)
        mmse.merge(*s)
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

    def step(x0, z):
        u1 = a * x0 + b
        x1 = x0 + u1
        y = x1 + z
        return u1, x1 - (y * gain + offset)

    return _run(cfg, (math.sqrt(Q), math.sqrt(N)), step)


def simulate_two_point(
    policy: TwoPointPolicy, params: ProblemParams, cfg: SimConfig
) -> EmpiricalCost:
    """Empirical costs of the two-point policy with its tanh decoder.

    The moments of the power square u1^2 once more, so the magnitude must
    keep the power's second moment E[u1^4] >= P(a)^2 finite; it is nearly
    P(a)^2 for large a. A larger magnitude is rejected.
    """
    Q, N = params.Q, params.N
    a = policy.a
    power = two_point_power(a, Q)
    if not math.isfinite(power * power):
        raise ValueError(
            f"two-point magnitude a={a} is too large to simulate: the second "
            f"moment of its power P(a)={power:.6g} is not finite"
        )

    def step(x0, z):
        x1 = a * np.where(x0 >= 0.0, 1.0, -1.0)
        return x1 - x0, x1 - two_point_decoder(x1 + z, a, N)

    return _run(cfg, (math.sqrt(Q), math.sqrt(N)), step)


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

    def step(x0, resid, z):
        u1 = lin_gain * x0 + resid
        x1 = x0 + u1
        y = x1 + z
        w2 = np.where(x1 >= 0.0, 1.0, -1.0)
        # mirror the negative-sign half onto the positive-sign decoder
        return u1, x1 - w2 * skew_cond_mean(w2 * y, T, N)

    return _run(cfg, (math.sqrt(Q), math.sqrt(p_res), math.sqrt(N)), step)
