"""Reusable numerical kernels.

Gaussian-weighted and whole-line quadrature (adaptive Gauss-Kronrod on a
truncated domain for a batch of integrals, one vectorized integrand call per
refinement round), a numerically stable Gaussian tail ratio, a bracketing
root-finder and a bounded 1-D minimizer (SciPy's Brent search, the package's
only optimizer).

All functions are pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq, minimize_scalar
from scipy.special import log_ndtr

from .core import NoBracket, NonConvergence, require_finite

__all__ = [
    "QuadratureConfig",
    "DEFAULT_QUADRATURE",
    "gauss_weighted_integral",
    "gauss_weighted_integrals",
    "integral_real_line",
    "mills_ratio",
    "find_root",
    "minimize_1d",
    "norm_pdf",
    "norm_cdf",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def norm_pdf(x):
    """Standard normal density, vectorized."""
    x = np.asarray(x, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def norm_cdf(x):
    """Standard normal CDF, vectorized."""
    from scipy.special import ndtr

    return ndtr(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and truncation for the adaptive quadratures.

    All integrands handled here decay at least like exp(-c x^2), so truncating
    the real line at `truncation_radius` standard-scale units discards tail
    mass below 1e-31 for the default radius of 12.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 200
    truncation_radius: float = 12.0

    def __post_init__(self) -> None:
        require_finite(
            abs_tol=self.abs_tol,
            rel_tol=self.rel_tol,
            max_subdivisions=self.max_subdivisions,
            truncation_radius=self.truncation_radius,
        )
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.truncation_radius < 8.0:
            raise ValueError("truncation_radius must be >= 8 standard deviations")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUADRATURE = QuadratureConfig()

# 15-point Kronrod extension of 7-point Gauss-Legendre (nodes on [-1, 1]).
_XK = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_WK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
# Gauss weights sit on the odd Kronrod nodes; zero elsewhere.
_WG = np.array(
    [
        0.0,
        0.129484966168870,
        0.0,
        0.279705391489277,
        0.0,
        0.381830050505119,
        0.0,
        0.417959183673469,
        0.0,
        0.381830050505119,
        0.0,
        0.279705391489277,
        0.0,
        0.129484966168870,
        0.0,
    ]
)


# Kronrod and Gauss weights as the columns of one matrix. A matrix product
# (GEMM) sums each panel's 15 nodes in the same order wherever the panel sits
# in the array, so a panel's values do not depend on the panels evaluated
# with it; a matrix-vector product (GEMV) blocks over panels, and its rows
# can differ in the last bit with their position.
_W = np.stack([_WK, _WG], axis=1)
_XK1 = _XK + 1.0

# Integrals per engine call when a grid is integrated: bounds the panel and
# node arrays of one refinement round at the speed of a full-grid batch.
_BATCH = 64


def _eval_panels(f, a: np.ndarray, b: np.ndarray, theta: np.ndarray):
    """Gauss-Kronrod on every panel [a_i, b_i] with one integrand call.

    `theta` holds each panel's parameter; f gets it once per node. Returns
    per panel (kronrod, |kronrod - gauss|).
    """
    h = 0.5 * (b - a)
    x = a[:, None] + h[:, None] * _XK1
    y = np.asarray(f(x.ravel(), np.repeat(theta, _XK.size)), dtype=float)
    if y.ndim == 0:
        # constant integrand returning a scalar for an array argument
        y = np.full(x.size, float(y))
    elif y.shape != (x.size,):
        raise ValueError("integrand must return one value per node")
    sums = np.ascontiguousarray(y).reshape(x.shape) @ _W
    ik = h * sums[:, 0]
    return ik, np.abs(ik - h * sums[:, 1])


def _vectorized(f):
    """Wrap a one-argument f so it accepts a node array even if written point-wise.

    A scalar-only integrand such as math.cos raises TypeError on an array;
    only then is f called node by node. Any other error propagates. The
    engine's parameter argument is dropped.
    """

    def call(x, _theta):
        try:
            return f(x)
        except TypeError:
            return np.array([f(xi) for xi in x], dtype=float)

    return call


def _adaptive(f, theta, lo: float, hi: float, cfg: QuadratureConfig) -> np.ndarray:
    """Adaptive Gauss-Kronrod subdivision of [lo, hi] for a batch of integrals.

    Integral k is the integral of f(x, theta[k]); f is called with a node
    array and an equally long array of parameters. Each integral starts from
    8 equal panels. Each round bisects every panel whose error estimate is at
    least the mean of its integral's panels, at most cfg.max_subdivisions
    panels per integral in total, the worst first, and evaluates the new
    halves of all unfinished integrals in one integrand call. An integral
    stops once its error sum meets its tolerance and leaves the batch.

    The panels sit in flat arrays with an owner index. Every step keeps
    each integral's panels in the order a batch of one would have them, and
    np.bincount sums them in that order, so an integral's value does not
    depend on its batch-mates, bit for bit. `theta=None` is one integral
    without a parameter. Raises NonConvergence for the first integral that
    runs out of budget or reaches a NaN error estimate; no value is returned.
    """
    named = theta is not None
    theta = np.zeros(1) if theta is None else np.asarray(theta, dtype=float)
    m = theta.size
    edges = np.linspace(lo, hi, 9)
    owner, panel = np.divmod(np.arange(8 * m), 8)
    a, b = edges[panel], edges[panel + 1]
    ik, err = _eval_panels(f, a, b, theta[owner])
    active = np.ones(m, dtype=bool)  # finished integrals have no panels left
    count = np.bincount(owner, minlength=m)
    splits = np.zeros(m, dtype=int)
    out = np.empty(m)
    while True:
        total = np.bincount(owner, ik, m)
        err_sum = np.bincount(owner, err, m)
        bound = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
        done = err_sum <= bound
        finished = done & active
        if finished.any():
            out[finished] = total[finished]
            active &= ~done
            if not active.any():
                return out
            kept = active[owner]
            a, b, ik, err, owner = a[kept], b[kept], ik[kept], err[kept], owner[kept]
        # a NaN error estimate would select no panel to bisect; the total of
        # the error sums, all >= 0, is finite iff each of them is
        if splits.max() >= cfg.max_subdivisions or not math.isfinite(err_sum.sum()):
            failed = ~done & ((splits >= cfg.max_subdivisions) | ~np.isfinite(err_sum))
            if failed.any():
                j = int(np.argmax(failed))
                at = f" at parameter {float(theta[j])!r}" if named else ""
                raise NonConvergence(
                    f"quadrature error {err_sum[j]:.3e} above tolerance {bound[j]:.3e} "
                    f"after {splits[j]} subdivisions{at}"
                )
        split = err >= (err_sum / count)[owner]
        chosen = np.bincount(owner[split], minlength=m)
        if (splits + chosen).max() > cfg.max_subdivisions:
            budget = cfg.max_subdivisions - splits
            for j in np.flatnonzero(chosen > budget):
                mine = np.flatnonzero(owner == j)
                worst = np.zeros(mine.size, dtype=bool)
                worst[np.argsort(err[mine])[-budget[j]:]] = True
                split[mine] = worst
                chosen[j] = budget[j]
        keep = ~split
        sa, sb, so = a[split], b[split], owner[split]
        mid = 0.5 * (sa + sb)
        new_a, new_b = np.concatenate([sa, mid]), np.concatenate([mid, sb])
        new_owner = np.concatenate([so, so])
        new_ik, new_err = _eval_panels(f, new_a, new_b, theta[new_owner])
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])
        ik = np.concatenate([ik[keep], new_ik])
        err = np.concatenate([err[keep], new_err])
        owner = np.concatenate([owner[keep], new_owner])
        splits += chosen
        count += chosen


def gauss_weighted_integral(
    f: Callable[[float], float], cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """Integral of f(x) * phi(x) over the real line, phi the standard normal density.

    The integrand f may grow at most polynomially (times logs); the Gaussian
    weight then confines everything to [-R, R] with R = cfg.truncation_radius.
    """
    fv = _vectorized(f)
    R = cfg.truncation_radius

    def weighted(x, theta):
        return np.asarray(fv(x, theta), dtype=float) * norm_pdf(x)

    return float(_adaptive(weighted, None, -R, R, cfg)[0])


def gauss_weighted_integrals(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    theta,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> np.ndarray:
    """The integrals of f(x, theta_k) * phi(x) over the real line, one per theta_k.

    The batched form of gauss_weighted_integral: f is called with an array
    of nodes and an equally long array of their parameters. The grid is
    integrated in slices of a fixed number of integrals, and each value is
    the one a batch of one would give, bit for bit.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    R = cfg.truncation_radius

    def weighted(x, th):
        return np.asarray(f(x, th), dtype=float) * norm_pdf(x)

    out = np.empty(theta.size)
    for lo in range(0, theta.size, _BATCH):
        out[lo : lo + _BATCH] = _adaptive(weighted, theta[lo : lo + _BATCH], -R, R, cfg)
    return out


def integral_real_line(
    f: Callable[[float], float], cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """Integral of f over the real line for integrands with Gaussian-type decay.

    Requires |f(x)| <= C exp(-c x^2) outside a bounded set, with a decay scale
    of order one so the truncation radius applies; callers standardize their
    variables accordingly.
    """
    R = cfg.truncation_radius
    return float(_adaptive(_vectorized(f), None, -R, R, cfg)[0])


def mills_ratio(x):
    """Gaussian hazard-type ratio phi(x) / Phi(x), stable over the whole line.

    Evaluated in log space as exp(log phi(x) - log Phi(x)); the left tail,
    where both factors underflow, then reduces to a well-scaled difference of
    logs (relative error ~1e-13 at x = -40). Accepts scalars or arrays.
    """
    arr = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * arr * arr - _LOG_SQRT_2PI - log_ndtr(arr))
    if np.ndim(x) == 0:
        return float(out)
    return out


def find_root(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12
) -> float:
    """Root of f on [lo, hi]; requires a sign change (or a zero endpoint)."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise NoBracket(f"f({lo})={flo:.6g} and f({hi})={fhi:.6g} have the same sign")
    return float(brentq(f, lo, hi, xtol=tol, rtol=8.9e-16))


def minimize_1d(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """(x, f(x)) at a minimum of f on [lo, hi], by SciPy's bounded Brent search.

    `tol` is the absolute x-tolerance (SciPy's default is 1e-5); the search
    also stops at a relative x-tolerance of about 1.5e-8. f must be finite
    on [lo, hi] and is assumed unimodal there: the search finds one local
    minimum and never samples the endpoints, so a caller whose minimum may sit
    at an endpoint compares against f(lo) and f(hi) itself.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": tol})
    return float(res.x), float(res.fun)
