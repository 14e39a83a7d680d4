"""The grid scan + golden-section minimizer, kept as a test oracle.

Test helper only: the package minimizes with Brent's bounded search
(`witsenhausen.numerics.minimize_1d`, a port of SciPy's). This brute-force route, which the
package used before, checks the dirty-paper coefficient optimum (acceptance
criterion 3), the coord edge optimizer and the lin-dpc optimizer.
"""
import math
from typing import Callable

import numpy as np

from witsenhausen.core import EmptyFeasibleSet

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def minimize_1d(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    grid: int = 201,
    tol: float = 1e-9,
) -> tuple[float, float]:
    """Minimize f on [lo, hi]: coarse grid scan, then golden-section refinement.

    The objective may return +inf as an infeasibility sentinel; the feasible
    set is assumed to be an interval (this holds for every constrained problem
    in this package), so scanning plus local refinement is sound. Raises
    EmptyFeasibleSet when every grid sample is infeasible. The result is never
    worse than the best grid sample.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if grid < 3:
        raise ValueError("grid must be >= 3")
    xs = np.linspace(lo, hi, grid)
    vals = np.array([f(float(x)) for x in xs], dtype=float)
    finite = np.isfinite(vals)
    if not finite.any():
        raise EmptyFeasibleSet("objective is +inf at every grid point")
    i = int(np.nanargmin(np.where(finite, vals, np.inf)))
    best_x, best_v = float(xs[i]), float(vals[i])

    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, grid - 1)])
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for x, v in ((c, fc), (d, fd)):
        if v < best_v:
            best_x, best_v = float(x), float(v)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        for x, v in ((c, fc), (d, fd)):
            if v < best_v:
                best_x, best_v = float(x), float(v)
    return best_x, best_v
