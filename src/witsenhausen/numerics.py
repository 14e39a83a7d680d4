"""Reusable numerical kernels.

Gaussian-weighted and whole-line quadrature (adaptive Gauss-Kronrod on a
truncated domain, one vectorized integrand call per refinement round), a
numerically stable Gaussian tail ratio, a bracketing root-finder and a
bounded 1-D minimizer (SciPy's Brent search, the package's only optimizer).

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


def _eval_panels(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Kronrod on every panel [a_i, b_i] with one integrand call.

    Returns per panel (kronrod, |kronrod - gauss|).
    """
    h = 0.5 * (b - a)
    x = a[:, None] + h[:, None] * (_XK + 1.0)
    y = np.asarray(f(x.ravel()), dtype=float)
    if y.ndim == 0:
        # constant integrand returning a scalar for an array argument
        y = np.full(x.size, float(y))
    elif y.shape != (x.size,):
        raise ValueError("integrand must return one value per node")
    y = y.reshape(x.shape)
    ik = h * (y @ _WK)
    return ik, np.abs(ik - h * (y @ _WG))


def _vectorized(f):
    """Wrap f so it accepts a node array even if written point-wise.

    A scalar-only integrand such as math.cos raises TypeError on an array;
    only then is f called node by node. Any other error propagates.
    """

    def call(x):
        try:
            return f(x)
        except TypeError:
            return np.array([f(xi) for xi in x], dtype=float)

    return call


def _adaptive(f, lo: float, hi: float, cfg: QuadratureConfig) -> float:
    """Adaptive Gauss-Kronrod subdivision of [lo, hi] for a scalar integrand.

    Starts from 8 equal panels. Each round bisects every panel whose error
    estimate is at least the mean and evaluates all the new halves in one
    integrand call. At most cfg.max_subdivisions panels are bisected in
    total, the worst first.
    """
    fv = _vectorized(f)
    edges = np.linspace(lo, hi, 9)
    a, b = edges[:-1], edges[1:]
    ik, err = _eval_panels(fv, a, b)
    splits = 0
    while True:
        total = float(ik.sum())
        err_sum = float(err.sum())
        bound = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if err_sum <= bound:
            return total
        budget = cfg.max_subdivisions - splits
        # a NaN error estimate would select no panel to bisect
        if budget <= 0 or not math.isfinite(err_sum):
            raise NonConvergence(
                f"quadrature error {err_sum:.3e} above tolerance {bound:.3e} "
                f"after {splits} subdivisions"
            )
        split = err >= err_sum / err.size
        if np.count_nonzero(split) > budget:
            split = np.zeros_like(split)
            split[np.argsort(err)[-budget:]] = True
        keep = ~split
        sa, sb = a[split], b[split]
        mid = 0.5 * (sa + sb)
        new_a, new_b = np.concatenate([sa, mid]), np.concatenate([mid, sb])
        new_ik, new_err = _eval_panels(fv, new_a, new_b)
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])
        ik = np.concatenate([ik[keep], new_ik])
        err = np.concatenate([err[keep], new_err])
        splits += len(sa)


def gauss_weighted_integral(
    f: Callable[[float], float], cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """Integral of f(x) * phi(x) over the real line, phi the standard normal density.

    The integrand f may grow at most polynomially (times logs); the Gaussian
    weight then confines everything to [-R, R] with R = cfg.truncation_radius.
    """
    R = cfg.truncation_radius

    def weighted(x):
        return np.asarray(f(x), dtype=float) * norm_pdf(x)

    return _adaptive(weighted, -R, R, cfg)


def integral_real_line(
    f: Callable[[float], float], cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """Integral of f over the real line for integrands with Gaussian-type decay.

    Requires |f(x)| <= C exp(-c x^2) outside a bounded set, with a decay scale
    of order one so the truncation radius applies; callers standardize their
    variables accordingly.
    """
    R = cfg.truncation_radius
    return _adaptive(f, -R, R, cfg)


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
