"""Arbitrary-precision oracles for the special functions (mpmath)."""
import mpmath
import numpy as np
import pytest

from witsenhausen import skewnormal
from witsenhausen.core import validate_params
from witsenhausen.numerics import mills_ratio
from witsenhausen.skewnormal import entropy_reduction
from witsenhausen.strategies import timeshare_interval


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
    # absolute only, as Psi ~ alpha^2 near 0; this range is read from the
    # series (test_psi_series_match_mpmath checks them at 1e-15)
    assert abs(entropy_reduction(alpha) - psi_mpmath(alpha)) <= 1e-14


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: above |alpha| ~ 550 the starting panels miss the "
    "transition at x = 0 (error 5.7e-4 at 600, 1.0e-4 at 1e4)",
)
@pytest.mark.parametrize("alpha", [600.0, 1e4])
def test_psi_matches_mpmath_at_large_skewness(alpha):
    assert abs(entropy_reduction(alpha) - psi_mpmath(alpha)) <= 1e-14


# three points per series: h1 on |alpha| <= 1, and h2 also beyond the switch
# to the quadrature at 500, where entropy_reduction does not read it yet
@pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0, 1e3, 1e5, 1e8], ids="{:g}".format)
def test_psi_series_match_mpmath(alpha):
    assert abs(skewnormal._psi_series(alpha) - psi_mpmath(alpha)) <= 1e-15


def test_psi_is_continuous_at_the_switch_to_the_quadrature():
    edge = skewnormal._SERIES_MAX
    assert abs(entropy_reduction(edge) - entropy_reduction(np.nextafter(edge, np.inf))) <= 1e-14


def test_psi_exact_values_and_evenness_on_both_sides_of_the_switch():
    edge = skewnormal._SERIES_MAX
    mags = np.array([0.0, 1.0, 3.0, edge, np.nextafter(edge, np.inf), 600.0, 1e4, np.inf])
    vals = entropy_reduction(mags)
    assert entropy_reduction(-mags).tolist() == vals.tolist()
    assert vals[0] == 0.0 and vals[-1] == 1.0
    assert entropy_reduction(-0.0) == 0.0 and entropy_reduction(-np.inf) == 1.0
    # a float takes the scalar path, which gives the array's values as floats
    for mag, val in zip(mags.tolist(), vals.tolist()):
        for a in (mag, -mag):
            assert type(entropy_reduction(a)) is float and entropy_reduction(a) == val


def mills_mpmath(x: float) -> float:
    """phi(x) / Phi(x) at 50 digits."""
    with mpmath.workdps(50):
        return float(mpmath.npdf(x) / mpmath.ncdf(x))


# either side of x = -38; the body grid stops at x = 37, as from 37.7 on
# 2 exp(x^2/2) overflows and the value is 0.0
_MILLS_LEFT_TAIL = (-np.geomspace(38.0 + 1e-9, 1e8, 40)).tolist()
_MILLS_BODY = sorted(
    (-np.geomspace(1e-6, 38.0, 30)).tolist() + np.linspace(-38.0, 37.0, 301).tolist()
)


def test_mills_matches_mpmath_in_the_left_tail():
    # one erfcx and one division: the log-space form this replaced was off
    # by 9.1e-14 at x = -40, 6.1e-9 at -1e4 and 0.78 at -1e8
    values = mills_ratio(np.array(_MILLS_LEFT_TAIL))
    for x, value in zip(_MILLS_LEFT_TAIL, values):
        oracle = mills_mpmath(x)
        assert abs(value - oracle) <= 1e-15 * oracle, x
        assert mills_ratio(x) == value


def test_mills_matches_mpmath_on_the_log_space_range():
    # for x < 0 as in the tail; for x >= 0, the exp inside erfcx carries the
    # rounding of x^2/2, about x^2 2^-53 relative
    values = mills_ratio(np.array(_MILLS_BODY))
    for x, value in zip(_MILLS_BODY, values):
        oracle = mills_mpmath(x)
        bound = 1e-15 if x < 0.0 else (x * x + 8.0) * 2.0**-51
        assert abs(value - oracle) <= bound * oracle, x
        assert mills_ratio(x) == value


@pytest.mark.parametrize("n", [0.2, 1e-2, 1e-4, 1e-8, 1e-9, 1e-10, 1e-16, 1e-17, 1e-100, 1e-150])
def test_timeshare_interval_matches_mpmath_roots(n):
    # the roots of p^2 - (1 - 2n) p + n^2 at Q = 1; 400 digits leave about
    # 100 after the lower root's cancellation at n = 1e-150
    with mpmath.workdps(400):
        m = mpmath.mpf(n)
        half = mpmath.sqrt(1 - 4 * m) / 2
        roots = (float((1 - 2 * m) / 2 - half), float((1 - 2 * m) / 2 + half))
    for end, root in zip(timeshare_interval(validate_params(1.0, n)), roots):
        assert end == pytest.approx(root, rel=1e-14, abs=0.0)
