"""Independent quadrature routes that cross-check the hybrid-scheme closed forms.

Test helpers only: the package computes the estimation cost through
coord_mmse_at_rho, and these routes exist to check it.
"""
import math

import numpy as np

from witsenhausen.numerics import gauss_weighted_integral, mills_ratio, norm_cdf
from witsenhausen.skewnormal import CoordParams, skew_cond_variance


def mmse_via_conditional_density(cp: CoordParams) -> float:
    """Estimation cost as the conditional variance averaged over the output density.

    Independent route used to cross-check coord_mmse_at_rho: integrates
    skew_cond_variance against the skew-normal output density
    2 Phi(sqrt(T/N) s) phi(s) after standardizing the output by sqrt(T+N).
    """
    t, n = cp.T, cp.N
    if t == 0.0:
        return 0.0
    sy = math.sqrt(t + n)
    d1 = math.sqrt(t / n)

    def f(s):
        s = np.asarray(s, dtype=float)
        return skew_cond_variance(sy * s, t, n) * 2.0 * norm_cdf(d1 * s)

    return gauss_weighted_integral(f)


def dropped_odd_term(cp: CoordParams) -> float:
    """The u m(u) cross term of the conditional variance, averaged over the output.

    Analytically zero (the integrand reduces to an odd function); evaluated
    literally as a check that dropping it from the closed form is sound.
    """
    t, n = cp.T, cp.N
    if t == 0.0:
        return 0.0
    d1 = math.sqrt(t / n)

    def f(s):
        u = d1 * np.asarray(s, dtype=float)
        return u * mills_ratio(u) * 2.0 * norm_cdf(u)

    return gauss_weighted_integral(f)
