import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval
from scipy.integrate import trapezoid
from scipy.special import log_ndtr

from witsenhausen import numerics, skewnormal
from witsenhausen.core import EmptyFeasibleSet, NoBracket, NonConvergence
from witsenhausen.numerics import (
    QuadratureConfig,
    find_root,
    gauss_weighted_integral,
    gauss_weighted_integrals,
    integral_real_line,
    mills_ratio,
    minimize_1d,
    norm_pdf,
)

from grid_search import minimize_1d as grid_minimize

LN2 = math.log(2.0)


# ---------------------------------------------------------------- oracles


def psi_trapezoid(alpha: float, n: int = 1_000_001, radius: float = 12.0) -> float:
    """Independent high-resolution trapezoid evaluation of the Psi integrand."""
    x = np.linspace(-radius, radius, n)
    logphi = log_ndtr(alpha * x)
    t = 2.0 * np.exp(logphi)
    integrand = np.where(t > 0.0, t * (logphi + LN2) / LN2, 0.0)
    return float(trapezoid(integrand * norm_pdf(x), x))


def bisect(f, lo, hi, iterations=80):
    flo = f(lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def mills_continued_fraction(z: float, depth: int = 120) -> float:
    """mills_ratio(-z) for z > 0 from the classic tail continued fraction."""
    acc = 0.0
    for k in range(depth, 0, -1):
        acc = k / (z + acc)
    return z + acc


# ------------------------------------------------- gauss_weighted_integral


def test_gauss_weight_normalization():
    assert gauss_weighted_integral(lambda x: np.ones_like(x)) == pytest.approx(1.0, abs=1e-10)


def test_gauss_weight_unit_variance():
    assert gauss_weighted_integral(lambda x: x * x) == pytest.approx(1.0, abs=1e-10)


def test_gauss_weight_matches_trapezoid_oracle_for_psi5():
    def f(x):
        lp = log_ndtr(5.0 * x)
        t = 2.0 * np.exp(lp)
        return np.where(t > 0.0, t * (lp + LN2) / LN2, 0.0)

    value = gauss_weighted_integral(f)
    oracle = psi_trapezoid(5.0)
    assert value == pytest.approx(oracle, abs=1e-10)
    # frozen from the oracle above
    assert value == pytest.approx(0.7963933255671833, abs=1e-12)


def test_gauss_weight_kills_hermite_polynomials():
    for degree in range(1, 7):
        coeffs = [0.0] * degree + [1.0]
        v = gauss_weighted_integral(lambda x: hermeval(x, coeffs))
        assert abs(v) <= 1e-10


def test_gauss_weight_accepts_scalar_only_integrand():
    v = gauss_weighted_integral(lambda x: math.cos(x))
    assert v == pytest.approx(math.exp(-0.5), abs=1e-10)


def test_vectorized_integrand_value_error_propagates():
    calls = []

    def broken(x):
        calls.append(x.size)
        raise ValueError("bug in a vectorized integrand")

    with pytest.raises(ValueError, match="bug in a vectorized integrand"):
        gauss_weighted_integral(broken)
    assert len(calls) == 1


def _count_psi_calls(monkeypatch) -> list[int]:
    """Record the node count of every call of the Psi integrand."""
    calls = []
    psi_integrand = skewnormal._psi_integrand

    def counted(x, alpha):
        calls.append(x.size)
        return psi_integrand(x, alpha)

    monkeypatch.setattr(skewnormal, "_psi_integrand", counted)
    return calls


@pytest.mark.parametrize("alpha", [0.3, 1.0, 3.0, 6.3, 30.0, 300.0])
def test_psi_matches_trapezoid_oracle_in_few_integrand_calls(alpha, monkeypatch):
    calls = _count_psi_calls(monkeypatch)
    assert skewnormal.entropy_reduction(alpha) == pytest.approx(psi_trapezoid(alpha), abs=1e-12)
    # every panel of a refinement round is evaluated in one integrand call
    assert len(calls) <= 12


def test_psi_grid_takes_few_integrand_calls(monkeypatch):
    # the 801-point table of `psi`: its distinct nonzero magnitudes (667, as
    # np.linspace is not exactly symmetric) in slices of numerics._BATCH,
    # each slice at most the 12 rounds of one integral; 4180 calls one by one
    calls = _count_psi_calls(monkeypatch)
    grid = np.linspace(-10.0, 10.0, 801)
    skewnormal.entropy_reduction(grid)
    distinct = np.unique(np.abs(grid[grid != 0.0])).size
    assert len(calls) <= 12 * math.ceil(distinct / numerics._BATCH)


# ------------------------------------------------------ integral_real_line


def test_real_line_normal_density():
    assert integral_real_line(norm_pdf) == pytest.approx(1.0, abs=1e-10)


def test_real_line_odd_integrand():
    assert integral_real_line(lambda x: x * norm_pdf(x)) == pytest.approx(0.0, abs=1e-12)


def test_real_line_sech_weighted_gaussian():
    value = integral_real_line(lambda x: norm_pdf(x) / np.cosh(x))
    x = np.linspace(-40.0, 40.0, 1_000_001)
    oracle = float(trapezoid(norm_pdf(x) / np.cosh(x), x))
    assert value == pytest.approx(oracle, abs=1e-10)
    assert value == pytest.approx(0.7412642741253773, abs=1e-12)


def test_nonconvergence_is_reported():
    cfg = QuadratureConfig(max_subdivisions=2)
    nodes = []

    def rough(x):
        nodes.append(x.size)
        return np.abs(np.sin(50.0 * x)) * norm_pdf(x)

    with pytest.raises(
        NonConvergence,
        match=r"quadrature error \d\.\d{3}e[-+]\d+ above tolerance 1\.000e-10 "
        r"after 2 subdivisions",
    ):
        integral_real_line(rough, cfg)
    # 8 initial panels, then the 2 allowed bisections: 4 halves of 15 nodes
    assert sum(nodes) == 15 * (8 + 2 * 2)


def test_nan_integrand_is_reported():
    with pytest.raises(NonConvergence, match="quadrature error nan"):
        integral_real_line(lambda x: np.full_like(x, np.nan))


# ------------------------------------------------- the batched engine


def _kink(x, theta):
    return np.abs(x - theta)


def test_batched_integrals_do_not_depend_on_their_batch_mates():
    # more integrals than one slice, in mixed order; the kink at x = theta
    # takes each integral through several rounds of refinement
    theta = np.random.default_rng(5).permutation(np.linspace(-3.0, 3.0, 150))
    batch = gauss_weighted_integrals(_kink, theta)
    for i in range(theta.size):
        alone = gauss_weighted_integrals(_kink, theta[i : i + 1])
        assert batch[i] == alone[0]
        assert batch[i] == gauss_weighted_integral(lambda x, t=theta[i]: _kink(x, t))
    # E|X - theta| = 2 phi(theta) + theta (2 Phi(theta) - 1); off a panel
    # edge the kink leaves the error estimate below the error (4e-10 here)
    exact = 2.0 * norm_pdf(theta) + theta * np.vectorize(math.erf)(theta / math.sqrt(2.0))
    assert np.max(np.abs(batch - exact)) <= 1e-9
    assert gauss_weighted_integrals(_kink, np.array([])).shape == (0,)


def test_batched_nonconvergence_names_the_failing_integral():
    # theta = 50 needs far more than 2 bisections; the others converge at once
    cfg = QuadratureConfig(max_subdivisions=2)
    nodes = []

    def f(x, theta):
        nodes.append(x.size)
        return np.abs(np.sin(theta * x))

    with pytest.raises(
        NonConvergence,
        match=r"quadrature error \d\.\d{3}e[-+]\d+ above tolerance 1\.000e-10 "
        r"after 2 subdivisions at parameter 50\.0$",
    ):
        gauss_weighted_integrals(f, np.array([0.0, 50.0, 0.0]), cfg)
    # the failure is raised in the round the lone integral would raise it
    assert sum(nodes) == 15 * (3 * 8 + 2 * 2)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(truncation_radius=4.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=0)
    for bad in (dict(abs_tol=math.nan), dict(rel_tol=math.inf),
                dict(truncation_radius=math.inf)):
        with pytest.raises(ValueError, match="finite"):
            QuadratureConfig(**bad)


# ------------------------------------------------------------- mills_ratio


def test_mills_at_zero():
    assert mills_ratio(0.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)


def test_mills_left_tail_matches_continued_fraction():
    assert mills_ratio(-40.0) == pytest.approx(mills_continued_fraction(40.0), rel=1e-12)
    # frozen from the continued-fraction oracle
    assert mills_ratio(-40.0) == pytest.approx(40.0249688472, rel=1e-11)


def test_mills_right_tail_becomes_density():
    # Phi ~ 1, and phi(40) underflows double precision
    assert mills_ratio(40.0) == 0.0
    assert mills_ratio(8.0) == pytest.approx(norm_pdf(8.0), rel=1e-12)


def test_mills_relative_accuracy_on_left_half_line():
    # independent special-function route: mills(-z) = sqrt(2/pi) / erfcx(z / sqrt(2))
    from scipy.special import erfcx

    for z in np.linspace(0.0, 40.0, 81):
        oracle = math.sqrt(2.0 / math.pi) / erfcx(z / math.sqrt(2.0))
        assert mills_ratio(-z) == pytest.approx(oracle, rel=1e-10)


def test_mills_tail_ratio_grows_into_left_tail():
    x = np.linspace(0.0, 40.0, 1000)
    values = mills_ratio(-x)
    assert np.all(np.diff(values) > 0.0)


def test_mills_vectorized_matches_scalar():
    xs = np.array([-30.0, -3.0, 0.0, 2.5, 10.0])
    vec = mills_ratio(xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert mills_ratio(float(x)) == v


# --------------------------------------------------------------- find_root


def test_find_root_linear():
    assert find_root(lambda x: x - 1.0, 0.0, 2.0, 1e-12) == pytest.approx(1.0, abs=1e-12)


def test_find_root_dpc_cubic_matches_bisection():
    f = lambda p: p * p * (p + 0.11) - 1e-5
    root = find_root(f, 0.0, 0.11, 1e-14)
    oracle = bisect(f, 0.0, 0.11)
    assert root == pytest.approx(oracle, abs=1e-12)
    # frozen from the bisection oracle
    assert root == pytest.approx(0.009160797830996154, abs=1e-12)


def test_find_root_requires_bracket():
    with pytest.raises(NoBracket):
        find_root(lambda x: x * x, 1.0, 2.0)


def test_find_root_agrees_with_bisection_on_misc_functions():
    cases = [
        (lambda x: math.tanh(3 * x) - 0.5, -2.0, 2.0),
        (lambda x: x**3 - 2 * x - 5, 0.0, 3.0),
        (lambda x: math.exp(x) - 2.0, 0.0, 1.0),
    ]
    tol = 1e-12
    for f, lo, hi in cases:
        assert abs(find_root(f, lo, hi, tol) - bisect(f, lo, hi)) <= 10 * tol


# ------------------------------------------------------------- minimize_1d


def test_minimize_parabola():
    x, v = minimize_1d(lambda x: (x - 0.3) ** 2, -1.0, 1.0, tol=1e-9)
    assert x == pytest.approx(0.3, abs=1e-8)
    assert v <= 1e-15


def test_minimize_nonsmooth_unimodal():
    x, _ = minimize_1d(abs, -1.0, 1.0, tol=1e-9)
    assert x == pytest.approx(0.0, abs=1e-8)


def test_minimize_tolerance_sets_the_precision():
    # below tol, SciPy's relative x-tolerance of about 1.5e-8 |x| takes over
    counts = []
    for tol, err in ((1e-5, 1e-4), (1e-12, 1.5e-8 * 0.7 * 2)):
        calls = []

        def f(x):
            calls.append(x)
            return math.cosh(x - 0.7)

        x, v = minimize_1d(f, -1.0, 1.0, tol=tol)
        assert abs(x - 0.7) <= err
        assert v == f(x)
        counts.append(len(calls))
    assert counts[0] < counts[1]


def test_minimize_never_samples_the_endpoints():
    # a minimum at an endpoint is only approached: callers compare f(lo), f(hi)
    calls = []

    def f(x):
        calls.append(x)
        return x

    x, _ = minimize_1d(f, 0.0, 1.0, tol=1e-5)
    assert 0.0 < x <= 1e-4
    assert all(0.0 < c < 1.0 for c in calls)


# ------------------------------------------ grid-search oracle (tests/grid_search.py)


def test_minimize_empty_feasible_set():
    with pytest.raises(EmptyFeasibleSet):
        grid_minimize(lambda x: math.inf, 0.0, 1.0, grid=11, tol=1e-9)


def test_minimize_partial_feasibility():
    def f(x):
        return (x - 0.4) ** 2 if 0.2 <= x <= 0.6 else math.inf

    x, v = grid_minimize(f, -1.0, 1.0, grid=41, tol=1e-9)
    assert x == pytest.approx(0.4, abs=1e-8)
    assert v <= 1e-14


def test_minimize_never_worse_than_grid():
    rng = np.random.default_rng(1234)
    for _ in range(20):
        coeff = rng.normal(size=6)

        def f(x, c=coeff):
            return float(np.polyval(c, x) + math.sin(3.0 * x) * c[0])

        grid = 51
        xs = np.linspace(-2.0, 2.0, grid)
        best_grid = min(f(float(x)) for x in xs)
        _, v = grid_minimize(f, -2.0, 2.0, grid=grid, tol=1e-9)
        assert v <= best_grid + 1e-15


def test_minimize_validates_arguments():
    with pytest.raises(ValueError):
        minimize_1d(lambda x: x, 1.0, 0.0, tol=1e-5)
    with pytest.raises(ValueError):
        grid_minimize(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValueError):
        grid_minimize(lambda x: x, 0.0, 1.0, grid=2)
