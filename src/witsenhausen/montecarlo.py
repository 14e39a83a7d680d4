"""Independent simulation oracle for the closed-form cost expressions.

Draws the state and channel noise, applies a scalar control policy together
with its closed-form optimal decoder, and estimates (power, estimation cost)
empirically. Everything is seeded and batched: the samples are split into
batches of the fixed size BATCH (the last one shorter), batch b draws from
the PCG64DXSM stream jumped b times from the seed, slice by slice in
CHUNK-long slices, and the slices' moments are merged in batch order and
then slice order, so the pair (seed, n_samples), with the constants BATCH
and CHUNK, gives bit-identical estimates regardless of how batches are
scheduled.

Batches run on a thread pool with one worker per CPU in the process's
affinity set; the random draws and the arithmetic release the GIL. No batch
holds a whole array: each slice draws its normals into one CHUNK-long
buffer per array, is scaled in place and mapped to the control u1 and the
estimation error, whose squares overwrite the first two buffers and are
reduced there to (n, mean, m2). Only those numbers reach the merge. Under
tracemalloc a coord run of two 1e6-sample batches peaks at 0.25 arrays of
a batch with one worker and 0.51 with two, about 15 CHUNK arrays per worker.
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .core import EmpiricalCost, ProblemParams, power_split, require_finite
from .skewnormal import CoordParams, skew_cond_mean
from .strategies import LinearPolicy, TwoPointPolicy, two_point_decoder, two_point_power

__all__ = [
    "SimConfig",
    "simulate_linear",
    "simulate_two_point",
    "simulate_hybrid_conditional",
]

# Samples per batch: each batch is one PCG64DXSM stream and one task of the
# thread pool, so the estimates depend on it.
BATCH = 1_000_000
# Samples per slice of the draws and the arithmetic: a slice's buffers and
# temporaries stay in cache, and the estimates depend on it too, since each
# slice is reduced to its own moments.
CHUNK = 2**14


@dataclass(frozen=True)
class SimConfig:
    """Sample budget and RNG seed of one simulation run.

    Together, with the constants BATCH and CHUNK, they fix the estimates bit
    for bit: the samples are drawn in batches of BATCH, each from its own
    PCG64DXSM stream jumped from the seed, one CHUNK-long slice at a time.
    """

    n_samples: int
    seed: int = 0

    def __post_init__(self) -> None:
        require_finite(n_samples=self.n_samples, seed=self.seed)
        if self.n_samples < 1000:
            raise ValueError(
                f"n_samples={self.n_samples} too small: standard errors are "
                "meaningless below 1000"
            )


def _merge(parts) -> tuple[float, float]:
    """Mean and standard error of the mean of parts given as `_moments` returns them.

    The parts' (n, mean, m2) are folded in order with the Welford/Chan merge
    formula, so accumulating 1e8 samples does not lose the small variance to
    cancellation. They must hold at least 2 samples in all.
    """
    n, mean, m2 = 0, 0.0, 0.0
    for bn, bmean, bm2 in parts:
        delta = bmean - mean
        total = n + bn
        m2 += bm2 + delta * delta * n * bn / total
        mean += delta * bn / total
        n = total
    return mean, math.sqrt(m2 / (n - 1) / n)


def _moments(x: np.ndarray) -> tuple[int, float, float]:
    """(n, mean, m2) of one slice, m2 the sum of squared deviations; overwrites x."""
    mean = float(np.mean(x))
    x -= mean
    np.square(x, out=x)
    return x.size, mean, float(np.sum(x))


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64DXSM(seed).jumped(batch_index))


def _batch_sizes(cfg: SimConfig):
    full, rest = divmod(cfg.n_samples, BATCH)
    sizes = [BATCH] * full
    if rest:
        sizes.append(rest)
    return sizes


def _worker_count(n_batches: int) -> int:
    """One thread per CPU this process may use, and at most one per batch."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return min(n_batches, cpus)


def _require_simulable_power(power: float, Q: float, what: str) -> None:
    """Reject a run whose squares do not fit in the moments.

    The moments square u1^2 and the squared error once more, and both are of
    the order of (P + Q)^2 (E[u1^4] >= P^2), which must be finite and at
    least the smallest normal double. Above that range a run can only report
    a NaN standard error; below it, a standard error of 0.
    """
    square = (power + Q) * (power + Q)
    if not math.isfinite(square):
        raise ValueError(
            f"{what} is too large to simulate: (P + Q)^2 is not finite for "
            f"P={power:.6g}, Q={Q:.6g}"
        )
    if square < sys.float_info.min:
        raise ValueError(
            f"{what} is too small to simulate: (P + Q)^2 is below the normal "
            f"range for P={power:.6g}, Q={Q:.6g}"
        )


def _run(cfg: SimConfig, scales: tuple[float, ...], step) -> EmpiricalCost:
    """Drive the batches of one simulation through `step`.

    Batch b draws from `_batch_rng(seed, b)` one CHUNK-long slice at a time:
    each slice draws one normal slice per entry of `scales` (two or three),
    in that order, into a CHUNK-long buffer per entry, and scales it in
    place. `step` maps the scaled slices to the control u1 and the
    estimation error of each sample, whose squares overwrite the first two
    buffers and are reduced there to (n, mean, m2). A batch returns its
    slices' moments. Batches run on a thread pool, and all moments are
    merged in batch order and then slice order, so the result does not
    depend on the worker count.
    """
    sizes = _batch_sizes(cfg)

    def batch(b: int):
        rng = _batch_rng(cfg.seed, b)
        n = sizes[b]
        bufs = [np.empty(min(n, CHUNK)) for _ in scales]
        stats = []
        for lo in range(0, n, CHUNK):
            m = min(CHUNK, n - lo)
            parts = [rng.standard_normal(out=buf[:m]) for buf in bufs]
            for x, scale in zip(parts, scales):
                x *= scale
            u1, err = step(*parts)
            np.square(u1, out=parts[0])
            np.square(err, out=parts[1])
            stats.append((_moments(parts[0]), _moments(parts[1])))
        return stats

    workers = _worker_count(len(sizes))
    if workers == 1:
        stats = [batch(b) for b in range(len(sizes))]
    else:
        # imported here, so that starting the CLI does not load it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            stats = list(pool.map(batch, range(len(sizes))))
    slices = [s for batch_stats in stats for s in batch_stats]
    power_mean, power_stderr = _merge(p for p, _ in slices)
    mmse_mean, mmse_stderr = _merge(s for _, s in slices)
    return EmpiricalCost(
        power_mean=power_mean,
        power_stderr=power_stderr,
        mmse_mean=mmse_mean,
        mmse_stderr=mmse_stderr,
        n_samples=cfg.n_samples,
        seed=cfg.seed,
    )


def simulate_linear(
    policy: LinearPolicy, params: ProblemParams, cfg: SimConfig
) -> EmpiricalCost:
    """Empirical costs of an affine policy with its conditional-mean decoder.

    The decoder reads off the Gaussian conditional mean of the interim state:
    u2 = y (1+a)^2 Q / ((1+a)^2 Q + N) + b N / ((1+a)^2 Q + N). A policy
    whose power P = a^2 Q + b^2 is too large or too small to simulate is
    rejected (see `_require_simulable_power`).
    """
    Q, N = params.Q, params.N
    a, b = policy.a, policy.b
    _require_simulable_power(a * a * Q + b * b, Q, f"linear policy a={a} b={b}")
    g = (1.0 + a) ** 2 * Q
    gain = g / (g + N)
    offset = b * (N / (g + N))

    def step(x0, z):
        # x1 = (x0 + a x0) + b, not x0 + u1: at a = -1 it is b exactly, and
        # so is the estimate, whose gain is then 0 and offset b, so the
        # error is exactly 0 like the closed form's
        ax = a * x0
        u1 = ax + b
        x1 = x0 + ax + b
        y = x1 + z
        return u1, x1 - (y * gain + offset)

    return _run(cfg, (math.sqrt(Q), math.sqrt(N)), step)


def simulate_two_point(
    policy: TwoPointPolicy, params: ProblemParams, cfg: SimConfig
) -> EmpiricalCost:
    """Empirical costs of the two-point policy with its tanh decoder.

    A magnitude whose power P(a) is too large or too small to simulate is
    rejected (see `_require_simulable_power`).
    """
    Q, N = params.Q, params.N
    a = policy.a
    _require_simulable_power(two_point_power(a, Q), Q, f"two-point magnitude a={a}")

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
    skew-normal conditional mean. A power P too large or too small to
    simulate is rejected.
    """
    Q, N = params.Q, params.N
    _require_simulable_power(cp.P, Q, f"coord power P={cp.P}")
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
