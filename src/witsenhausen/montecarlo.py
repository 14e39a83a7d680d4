"""Independent simulation oracle for the closed-form cost expressions.

Draws the state and channel noise, applies a scalar control policy together
with its closed-form optimal decoder, and estimates (power, estimation cost)
empirically. The two nonlinear decoders, two-point's a tanh(a y / N) and
coord's skew-normal conditional mean, are this module's slice steps: they
take and write CHUNK-long arrays in place, and nothing else runs them. The
closed-form modules never import this one. Each simulator takes a policy
(`LinearPolicy`, `TwoPointPolicy` or `CoordPolicy`), which holds only what
the encoder chooses, with the problem's `ProblemParams` and a `SimConfig`.
Everything is seeded and batched: the samples are split into batches of the
fixed size BATCH (the last one shorter), batch b draws from the PCG64DXSM
stream jumped b times from the seed, slice by slice in CHUNK-long slices,
and the slices' moments are merged in batch order and then slice order, so
the pair (seed, n_samples), with the constants BATCH and CHUNK, gives
bit-identical estimates regardless of which worker runs which slice.

Slices run on one thread per CPU in the process's affinity set, and at
most one per batch, so a single batch runs on one worker thread; the
random draws and the arithmetic release the GIL.
A worker claims one slice at a time, of the batch with the most slices
still unclaimed (ties to the lowest index), so the claims go round-robin
over every batch: the workers nearly always draw from different streams,
and no batch is left to draw alone at the end. A worker draws the slice's
normals under its batch's lock, so each batch's stream is still drawn in
slice order, and runs the rest of the slice outside the lock. No worker
holds a whole array: a worker allocates one CHUNK-long buffer per drawn
array and one scratch buffer, once. Each slice draws its normals into the
first ones and is scaled in place; the simulator then computes the control
u1 and the estimation error in place in these buffers with `out=` ufunc
calls, their squares overwrite them, and they are reduced there to
(n, mean, m2). Only those numbers reach the merge. Under tracemalloc a
coord run of two 1e6-sample batches peaks at 0.57 MB with one worker and
1.08 MB with two, about 4.4 CHUNK arrays per worker (3.3 for the linear
and two-point runs).
"""
from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .core import EmpiricalCost, ProblemParams, power_split, require_finite
from .numerics import mills_ratio
from .skewnormal import CoordPolicy
from .strategies import LinearPolicy, TwoPointPolicy, two_point_power

__all__ = [
    "SimConfig",
    "simulate_linear",
    "simulate_two_point",
    "simulate_hybrid_conditional",
]

# Samples per batch: each batch is one PCG64DXSM stream, so the estimates
# depend on it.
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
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be nonnegative")
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
    mean = float(np.add.reduce(x)) / x.size
    x -= mean
    np.square(x, out=x)
    return x.size, mean, float(np.add.reduce(x))


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


def _signs(x: np.ndarray, out: np.ndarray, magnitude: float = 1.0) -> np.ndarray:
    """Write np.where(x >= 0.0, magnitude, -magnitude) into out, in two passes.

    magnitude must be nonnegative. x + 0.0 is x, except that -0.0 becomes
    +0.0, so its sign is that of x >= 0. (A ufunc's `where=` mask runs
    several times slower over the random sign pattern of a slice.)
    """
    np.add(x, 0.0, out=out)
    return np.copysign(magnitude, out, out=out)


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
    """Drive the slices of one simulation through `step`.

    Batch b draws from `_batch_rng(seed, b)` one CHUNK-long slice at a time:
    each slice draws one normal slice per entry of `scales` (two or three),
    in that order, into a CHUNK-long buffer per entry, and scales it in
    place. `step(*slices, tmp)` gets those slices and one more CHUNK-long
    scratch slice `tmp`. It computes the control u1 and the estimation error
    of each sample in place in these slices, and returns the two slices that
    hold them. Their squares overwrite them and are reduced there to
    (n, mean, m2).

    The slice is the unit of work of the worker threads. A worker claims one
    slice of the batch with the most slices still unclaimed, the lowest
    index among equals, so every batch advances from its first slice and
    the workers' draws rarely wait on each other's. It draws that batch's
    next slice under the batch's lock, which keeps the stream in slice
    order, and runs the rest of the slice outside it. Each slice's
    moments are stored under its batch and slice index and merged in batch
    order and then slice order, so the result does not depend on the worker
    count or on which worker ran which slice. Every run starts
    `_worker_count(n_batches)` threads, one for a single batch, joins them
    and raises the first exception a worker raised again in the caller.
    """
    sizes = _batch_sizes(cfg)
    n_batches = len(sizes)
    rngs = [_batch_rng(cfg.seed, b) for b in range(n_batches)]
    locks = [threading.Lock() for _ in range(n_batches)]
    n_slices = [-(-n // CHUNK) for n in sizes]
    drawn = [0] * n_batches  # slices drawn so far, per batch
    stats = [[None] * k for k in n_slices]
    # the batch of each claim in turn: while `left` slices are the most any
    # batch has unclaimed, every batch with that many, in index order
    claims = (
        b
        for left in range(max(n_slices), 0, -1)
        for b, k in enumerate(n_slices)
        if k >= left
    )
    pick = threading.Lock()

    def claim():
        """The batch of a slice claimed for the calling worker, or None once all are."""
        with pick:
            return next(claims, None)

    def draw(b: int, bufs):
        """Draw batch b's next slice into bufs: its index and its slices."""
        with locks[b]:
            i = drawn[b]
            drawn[b] = i + 1
            m = min(CHUNK, sizes[b] - i * CHUNK)
            parts = [buf[:m] for buf in bufs]
            for x in parts[: len(scales)]:
                rngs[b].standard_normal(out=x)
        return i, parts

    def work() -> None:
        bufs = [np.empty(min(sizes[0], CHUNK)) for _ in range(len(scales) + 1)]
        while (b := claim()) is not None:
            i, parts = draw(b, bufs)
            for x, scale in zip(parts, scales):
                x *= scale
            u1, err = step(*parts)
            np.square(u1, out=u1)
            np.square(err, out=err)
            stats[b][i] = (_moments(u1), _moments(err))

    errors = []

    def run() -> None:
        try:
            work()
        except BaseException as exc:  # raised again in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(_worker_count(n_batches))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    slices = [s for batch_stats in stats for s in batch_stats]
    power_mean, power_stderr = _merge(p for p, _ in slices)
    mmse_mean, mmse_stderr = _merge(s for _, s in slices)
    return EmpiricalCost(
        power_mean=power_mean,
        power_stderr=power_stderr,
        mmse_mean=mmse_mean,
        mmse_stderr=mmse_stderr,
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

    def step(x0, z, ax):
        # x1 = (x0 + a x0) + b, not x0 + u1: at a = -1 it is b exactly, and
        # so is the estimate, whose gain is then 0 and offset b, so the
        # error is exactly 0 like the closed form's
        np.multiply(x0, a, out=ax)
        x0 += ax
        x0 += b  # x1
        ax += b  # u1
        z += x0  # y
        z *= gain
        z += offset
        np.subtract(x0, z, out=z)
        return ax, z

    return _run(cfg, (math.sqrt(Q), math.sqrt(N)), step)


def _two_point_decoder(y: np.ndarray, a: float, N: float) -> None:
    """Overwrite the outputs y with the two-point scheme's estimates a tanh(a y / N)."""
    np.multiply(a, y, out=y)
    y /= N
    np.tanh(y, out=y)
    y *= a


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

    def step(x0, z, x1):
        _signs(x0, out=x1, magnitude=a)
        z += x1  # y
        _two_point_decoder(z, a, N)
        np.subtract(x1, z, out=z)
        np.subtract(x1, x0, out=x0)  # u1
        return x0, z

    return _run(cfg, (math.sqrt(Q), math.sqrt(N)), step)


def _skew_cond_mean(y1: np.ndarray, T: float, N: float, out: np.ndarray) -> None:
    """Write into out the interim state's conditional mean given y1 and a positive sign.

    mu + sigma m(mu/sigma) with mu = y1 T/(T+N) and sigma^2 = TN/(T+N): the
    mean of the conditional Gaussian truncated to the positive half-line.
    out must not share memory with y1, which is read again at the end and
    left scaled to mu.
    """
    gain = T / (T + N)
    # N times a ratio <= 1, as in coord_mmse_at_rho: the product T N
    # overflows where every square of a simulation still fits
    sig = math.sqrt(N * gain)
    # mu/sigma is built in out, and mu in y1 at the end, and mills_ratio
    # works in place, so the decoder holds no array beside out and y1
    np.multiply(y1, gain, out=out)
    out /= sig
    mills_ratio(out, out=out)
    out *= sig
    y1 *= gain
    out += y1


def simulate_hybrid_conditional(
    policy: CoordPolicy, params: ProblemParams, cfg: SimConfig
) -> EmpiricalCost:
    """Empirical costs of the hybrid scheme with a genie-provided sign.

    Simulates the correlated input u1 = rho sqrt(P/Q) x0 + residual, hands the
    decoder the true sign of the interim state (the single-letter expression
    is defined under exactly this conditioning) and decodes with the
    skew-normal conditional mean. A power P above Q, or too large or too
    small to simulate, is rejected.
    """
    Q, N = params.Q, params.N
    lin_gain = policy.rho * math.sqrt(policy.unit_power(params))
    _require_simulable_power(policy.P, Q, f"coord power P={policy.P}")
    _, p_res, T = power_split(policy.P, Q, 1.0 + policy.rho)
    if T <= 0.0:
        raise ValueError("interim-state variance must be positive")

    def step(x0, resid, z, u1):
        np.multiply(x0, lin_gain, out=u1)
        u1 += resid
        x0 += u1  # x1
        z += x0  # y
        # mirror the negative-sign half onto the positive-sign decoder
        z *= _signs(x0, out=resid)
        _skew_cond_mean(z, T, N, out=resid)
        # |x1| minus the estimate is the error times the sign of x1: the
        # same square
        np.abs(x0, out=x0)
        np.subtract(x0, resid, out=resid)
        return u1, resid

    return _run(cfg, (math.sqrt(Q), math.sqrt(p_res), math.sqrt(N)), step)
