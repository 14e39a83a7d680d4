"""Arbitrary-precision oracles for the special integrals (mpmath, 30 digits)."""
import mpmath
import numpy as np
import pytest

from witsenhausen.skewnormal import entropy_reduction


def psi_mpmath(alpha: float) -> float:
    """Psi(alpha) by 30-digit tanh-sinh quadrature.

    The integrand's transition at x = 0 has width ~1/alpha, so the line is
    split at 0, +-1/alpha and +-10/alpha.
    """
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)

        def f(x):
            t = 2 * mpmath.ncdf(a * x)
            return t * mpmath.log(t, 2) * mpmath.npdf(x) if t > 0 else mpmath.mpf(0)

        cuts = [-10 / a, -1 / a, mpmath.mpf(0), 1 / a, 10 / a]
        return float(mpmath.quad(f, [-mpmath.inf, *cuts, mpmath.inf]))


@pytest.mark.parametrize("alpha", np.geomspace(1e-3, 500.0, 10).tolist(), ids="{:.3g}".format)
def test_psi_matches_mpmath(alpha):
    # absolute only: Psi ~ alpha^2 near 0, where the quadrature's absolute
    # tolerance of 1e-10 is the binding one
    assert abs(entropy_reduction(alpha) - psi_mpmath(alpha)) <= 1e-14


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: above |alpha| ~ 550 the starting panels miss the "
    "transition at x = 0 (error 5.7e-4 at 600, 1.0e-4 at 1e4)",
)
@pytest.mark.parametrize("alpha", [600.0, 1e4])
def test_psi_matches_mpmath_at_large_skewness(alpha):
    assert abs(entropy_reduction(alpha) - psi_mpmath(alpha)) <= 1e-14
