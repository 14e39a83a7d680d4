"""Reusable numerical kernels.

Gaussian-weighted and whole-line quadrature (adaptive Gauss-Kronrod on a
truncated domain, one vectorized integrand call per refinement round; one
integral keeps its panels in Python floats and a batch of integrals in flat
arrays, by the same rule and to the same values bit for bit), a
numerically stable Gaussian tail ratio, a bracketing root-finder and a
bounded 1-D minimizer (Brent's methods, the package's only solvers). The two solvers are ports of SciPy's `brentq` and bounded
`minimize_scalar` that give the same iterates bit for bit (the minimizer
can also stop at its first value below a given one), and mills_ratio
imports SciPy's erfcx at its first call, so that starting the package loads
no SciPy module: importing scipy.special alone takes about 0.3-0.4 s.

The quadratures have no settings. Their error bound, QUAD_TOL = 1e-10,
applies to each integral's error estimate both absolutely and relative to
its value, and is fixed like their truncation radius and subdivision budget:
every integrand here decays at least like exp(-c x^2) on a scale of order
one, so cutting the real line at 12 units discards tail mass below 1e-31,
and an integral that still misses its bound after the refinement round that
takes it to 200 bisections or more raises NonConvergence.

All functions are pure, apart from filling an `out` array passed to them.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import NonConvergence

__all__ = [
    "QUAD_TOL",
    "gauss_weighted_integral",
    "gauss_weighted_integrals",
    "integral_real_line",
    "mills_ratio",
    "find_root",
    "minimize_1d",
    "norm_pdf",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT2 = math.sqrt(2.0)


def norm_pdf(x):
    """Standard normal density, vectorized."""
    x = np.asarray(x, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


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
# Bisections from which on an unfinished integral fails, the half-width of
# the integration domain [-_RADIUS, _RADIUS] that stands in for the real line, and the error bound
# of every integral, absolute and relative.
_MAX_SUBDIVISIONS = 200
_RADIUS = 12.0
QUAD_TOL = 1e-10


def _eval_panels(f, a: np.ndarray, b: np.ndarray, *node_args):
    """Gauss-Kronrod on every panel [a_i, b_i] with one integrand call.

    f gets the node array followed by `node_args`, arrays with one entry per
    node. Returns per panel (kronrod, |kronrod - gauss|).
    """
    h = 0.5 * (b - a)
    x = a[:, None] + h[:, None] * _XK1
    y = _per_node(f(x.ravel(), *node_args), x.size)
    sums = np.ascontiguousarray(y).reshape(x.shape) @ _W
    ik = h * sums[:, 0]
    return ik, np.abs(ik - h * sums[:, 1])


def _per_node(y, n: int) -> np.ndarray:
    """An integrand's values as a float array; any shape but (n,) raises ValueError."""
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ValueError("integrand must return one value per node")
    return y


def _nonconvergence(err_sum, bound, splits: int, at: str = "") -> NonConvergence:
    """The error of an integral left unfinished; `at` names its parameter."""
    return NonConvergence(
        f"quadrature error {err_sum:.3e} above tolerance {bound:.3e} after {splits} subdivisions{at}"
    )


def _integral(f) -> float:
    """Adaptive Gauss-Kronrod subdivision of [-_RADIUS, _RADIUS] for one integral of f(x).

    The rule of `_adaptive` for a batch of one, with the panels in Python
    lists of floats: a round of a single integral evaluates a few dozen
    panels, and NumPy calls sized for a batch would cost more than the
    round's arithmetic. Only the integrand call and the panel rule run in
    NumPy, on the new halves. The panels are kept in the order a batch of
    one has them (kept panels, then left halves, then right halves) and
    summed left to right from 0.0, as np.bincount does, so the value is a
    batch of one's, bit for bit. Raises NonConvergence like `_adaptive`,
    without a parameter.
    """
    edges = np.linspace(-_RADIUS, _RADIUS, 9)
    ik, err = _eval_panels(f, edges[:-1], edges[1:])
    panels = list(zip(edges[:-1].tolist(), edges[1:].tolist(), ik.tolist(), err.tolist()))
    splits = 0
    while True:
        total = err_sum = 0.0
        for p in panels:
            total += p[2]
            err_sum += p[3]
        # max() keeps a NaN total, as np.maximum does
        bound = max(QUAD_TOL * abs(total), QUAD_TOL)
        if err_sum <= bound:
            return total
        # a NaN error estimate would select no panel to bisect
        if splits >= _MAX_SUBDIVISIONS or not math.isfinite(err_sum):
            raise _nonconvergence(err_sum, bound, splits)
        mean = err_sum / len(panels)
        halved = [p for p in panels if p[3] >= mean]
        mid = [0.5 * (p[0] + p[1]) for p in halved]
        new_a, new_b = [p[0] for p in halved] + mid, mid + [p[1] for p in halved]
        ik, err = _eval_panels(f, np.array(new_a), np.array(new_b))
        # the error sum is finite here, so no estimate is NaN
        panels = [p for p in panels if p[3] < mean] + list(zip(new_a, new_b, ik.tolist(), err.tolist()))
        splits += len(halved)


def _adaptive(f, theta: np.ndarray) -> np.ndarray:
    """Adaptive Gauss-Kronrod subdivision of [-_RADIUS, _RADIUS] for a batch of integrals.

    Integral k is the integral of f(x, theta[k]); f is called with a node
    array and an equally long array of parameters. Each integral starts from
    8 equal panels. Each round bisects every panel whose error estimate is at
    least the mean of its integral's panels and evaluates the new halves of
    all unfinished integrals in one integrand call. An integral stops once
    its error sum is at most max(QUAD_TOL, QUAD_TOL |value|) and leaves the
    batch; one still unfinished after a round that took it to
    _MAX_SUBDIVISIONS bisections or more fails.

    The panels sit in flat arrays with an owner index. Every step keeps
    each integral's panels in the order a batch of one would have them, and
    np.bincount sums them in that order, so an integral's value does not
    depend on its batch-mates, bit for bit; `_integral` runs the same rule
    for one integral without a parameter. Raises NonConvergence, naming the
    parameter, for the first integral that fails or reaches a NaN error
    estimate; no value is returned.
    """
    m = theta.size
    edges = np.linspace(-_RADIUS, _RADIUS, 9)
    owner, panel = np.divmod(np.arange(8 * m), 8)
    a, b = edges[panel], edges[panel + 1]
    ik, err = _eval_panels(f, a, b, np.repeat(theta[owner], _XK.size))
    active = np.ones(m, dtype=bool)  # finished integrals have no panels left
    count = np.bincount(owner, minlength=m)
    splits = np.zeros(m, dtype=int)
    out = np.empty(m)
    while True:
        total = np.bincount(owner, ik, m)
        err_sum = np.bincount(owner, err, m)
        bound = np.maximum(QUAD_TOL, QUAD_TOL * np.abs(total))
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
        if splits.max() >= _MAX_SUBDIVISIONS or not math.isfinite(err_sum.sum()):
            failed = ~done & ((splits >= _MAX_SUBDIVISIONS) | ~np.isfinite(err_sum))
            if failed.any():
                j = int(np.argmax(failed))
                raise _nonconvergence(
                    err_sum[j], bound[j], splits[j], f" at parameter {float(theta[j])!r}"
                )
        split = err >= (err_sum / count)[owner]
        chosen = np.bincount(owner[split], minlength=m)
        keep = ~split
        sa, sb, so = a[split], b[split], owner[split]
        mid = 0.5 * (sa + sb)
        new_a, new_b = np.concatenate([sa, mid]), np.concatenate([mid, sb])
        new_owner = np.concatenate([so, so])
        new_ik, new_err = _eval_panels(f, new_a, new_b, np.repeat(theta[new_owner], _XK.size))
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])
        ik = np.concatenate([ik[keep], new_ik])
        err = np.concatenate([err[keep], new_err])
        owner = np.concatenate([owner[keep], new_owner])
        splits += chosen
        count += chosen


def _gauss_weighted(f):
    """f(x, *theta) times the standard normal density at the nodes x."""

    def weighted(x, *theta):
        return _per_node(f(x, *theta), x.size) * norm_pdf(x)

    return weighted


def gauss_weighted_integral(f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integral of f(x) * phi(x) over the real line, phi the standard normal density.

    f is called with an array of nodes and must return one value per node;
    any other shape raises ValueError. It may grow at most polynomially
    (times logs); the Gaussian weight then confines everything to [-12, 12].
    """
    return _integral(_gauss_weighted(f))


def gauss_weighted_integrals(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], theta
) -> np.ndarray:
    """The integrals of f(x, theta_k) * phi(x) over the real line, one per theta_k.

    The batched form of gauss_weighted_integral: f is called with an array
    of nodes and an equally long array of their parameters. The grid is
    integrated in slices of a fixed number of integrals, and each value is
    the one a batch of one would give, bit for bit.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    weighted = _gauss_weighted(f)
    out = np.empty(theta.size)
    for lo in range(0, theta.size, _BATCH):
        out[lo : lo + _BATCH] = _adaptive(weighted, theta[lo : lo + _BATCH])
    return out


def integral_real_line(f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integral of f over the real line for integrands with Gaussian-type decay.

    f is called with an array of nodes and must return one value per node;
    any other shape raises ValueError. Requires |f(x)| <= C exp(-c x^2)
    outside a bounded set, with a decay scale of order one so the truncation
    radius of 12 applies; callers standardize their variables accordingly.
    """
    return _integral(f)


def mills_ratio(x, out=None):
    """Gaussian hazard-type ratio phi(x) / Phi(x), stable over the whole line.

    Phi(x) = exp(-x^2/2) erfcx(-x/sqrt(2)) / 2 for every x, so the ratio is
    sqrt(2/pi) / erfcx(-x/sqrt(2)): one erfcx and one division. It is within
    1e-15 relative out to x = -1e8. For x >= 0 erfcx rounds x^2/2 inside its
    exp, which puts the error within (x^2 + 8) 2^-51 up to x = 37; the value
    is 0.0 from x = 37.7 on, where 2 exp(x^2/2) overflows. Accepts scalars or
    arrays. `out`, an array of the shape of x, receives the ratios (NumPy's
    out convention; it may be x itself).
    """
    # imported here, so that starting the CLI does not load SciPy
    from scipy.special import erfcx

    arr = np.atleast_1d(np.asarray(x, dtype=float))
    # built in out (a new array when None) with no temporary: the simulator's
    # decoder calls this on every slice
    e = np.divide(arr, -_SQRT2, out=out)
    erfcx(e, out=e)
    np.divide(_SQRT_2_OVER_PI, e, out=e)
    if np.ndim(x) == 0:
        return float(e[0])
    return e


# Brent's root-finder and bounded minimizer (R. P. Brent, Algorithms for
# Minimization without Derivatives, 1973), ported line for line from SciPy
# (BSD-3-Clause): the C loop of `brentq` (Zeros/brentq.c) and
# `_minimize_scalar_bounded` (_optimize.py) of SciPy's optimize package.
# Every operation is the same IEEE double operation in the same order, so
# the iterates, and the results, are SciPy's bit for bit;
# tests/test_numerics.py checks this against SciPy itself.
_ROOT_RTOL = 8.9e-16
_ROOT_MAXITER = 100
_MINIMIZE_MAXFUN = 500
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def _value(f, x: float, solver: str) -> float:
    """f(x) as a float; a NaN raises NonConvergence naming the solver and x."""
    fx = float(f(x))
    if math.isnan(fx):
        raise NonConvergence(f"{solver}: the function value at x={x!r} is NaN")
    return fx


def find_root(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12
) -> float:
    """Root of f on [lo, hi]; requires a sign change (or a zero endpoint).

    Brent's method to an x-tolerance of tol + 8.9e-16 |x|. f is evaluated
    once at each endpoint, then once per iteration. End values of the same
    sign, a NaN value of f, or no convergence within 100 iterations raise
    NonConvergence.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    flo, fhi = _value(f, lo, "find_root"), _value(f, hi, "find_root")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    # by sign rather than by product, which underflows to 0 for tiny values
    if (flo < 0.0) == (fhi < 0.0):
        raise NonConvergence(f"f({lo})={flo:.6g} and f({hi})={fhi:.6g} have the same sign")
    xpre, xcur, fpre, fcur = float(lo), float(hi), flo, fhi
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C gives +-inf or NaN here, which never makes a short step
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur, "find_root")
    raise NonConvergence(
        f"find_root: no convergence in {_ROOT_MAXITER} iterations on [{lo}, {hi}]; "
        f"last x={xcur!r}, f(x)={fcur!r}"
    )


def minimize_1d(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    stop: float = -math.inf,
) -> tuple[float, float]:
    """(x, f(x)) at a minimum of f on [lo, hi], by Brent's bounded search.

    A port of SciPy's bounded search plus an optional early stop: the search
    returns (x, f(x)) at the first point it evaluates whose value is below
    `stop`, and runs exactly as SciPy's where no value is. `tol` is the
    absolute x-tolerance (SciPy's default is 1e-5); the search also stops at
    a relative x-tolerance of about 1.5e-8. f must be finite on [lo, hi] and
    is assumed unimodal there: the search finds one local minimum and never
    samples the endpoints, so a caller whose minimum may sit at an endpoint
    compares against f(lo) and f(hi) itself. A NaN value of f, or no
    convergence within 500 evaluations, raises NonConvergence.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    a, b = lo, hi
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = _value(f, xf, "minimize_1d")
    if fx < stop:
        return float(xf), fx
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + tol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        if num >= _MINIMIZE_MAXFUN:
            raise NonConvergence(
                f"minimize_1d: no convergence in {num} evaluations on [{lo}, {hi}]; "
                f"best x={xf!r}, f(x)={fx!r}"
            )
        golden = True
        # check for a parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            # is the parabola acceptable?
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = _value(f, x, "minimize_1d")
        if fu < stop:
            return float(x), fu
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + tol / 3.0
        tol2 = 2.0 * tol1
    return float(xf), fx
