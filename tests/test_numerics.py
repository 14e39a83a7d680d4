import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval
from scipy.integrate import trapezoid
from scipy.optimize import brentq, minimize_scalar
from scipy.special import log_ndtr

from witsenhausen import numerics, skewnormal, strategies
from witsenhausen.core import EmptyFeasibleSet, NonConvergence
from witsenhausen.numerics import (
    find_root,
    gauss_weighted_integral,
    gauss_weighted_integrals,
    integral_real_line,
    mills_ratio,
    minimize_1d,
    norm_pdf,
)

import gaussian_oracles
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
    # up to |alpha| = 500 Psi is read from its series, with no quadrature
    calls = _count_psi_calls(monkeypatch)
    assert skewnormal.entropy_reduction(alpha) == pytest.approx(psi_trapezoid(alpha), abs=1e-12)
    assert calls == []


@pytest.mark.parametrize("alpha", [520.0, 600.0, 1e4, 1e8])
def test_psi_quadrature_above_the_series_takes_few_integrand_calls(alpha, monkeypatch):
    # every panel of a refinement round is evaluated in one integrand call
    calls = _count_psi_calls(monkeypatch)
    skewnormal.entropy_reduction(alpha)
    assert 0 < len(calls) <= 12


def test_psi_grid_takes_few_integrand_calls(monkeypatch):
    # the 801-point table of `psi` runs no quadrature; a table that reaches
    # past |alpha| = 500 integrates each magnitude above 500 on its own, in
    # at most the 12 rounds of one integral
    calls = _count_psi_calls(monkeypatch)
    skewnormal.entropy_reduction(np.linspace(-10.0, 10.0, 801))
    assert calls == []
    grid = np.linspace(-1e4, 1e4, 801)
    skewnormal.entropy_reduction(grid)
    far = int(np.count_nonzero(np.abs(grid) > skewnormal._SERIES_MAX))
    assert 0 < len(calls) <= 12 * far


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


def test_nonconvergence_is_reported(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_SUBDIVISIONS", 2)
    nodes = []

    def rough(x):
        nodes.append(x.size)
        return np.abs(np.sin(50.0 * x)) * norm_pdf(x)

    with pytest.raises(
        NonConvergence,
        match=r"quadrature error \d\.\d{3}e[-+]\d+ above tolerance 1\.000e-10 "
        r"after 2 subdivisions",
    ):
        integral_real_line(rough)
    # 8 initial panels, then one round of 2 bisections, which reaches the
    # budget and leaves the integral unfinished: 4 halves of 15 nodes
    assert sum(nodes) == 15 * (8 + 2 * 2)


def test_an_integral_may_finish_in_the_round_that_passes_the_budget(monkeypatch):
    # cos(x) phi(x) takes two rounds of 2 bisections each; the second round
    # runs whole past a budget of 3 and its value is the unbudgeted one
    def f(x):
        return np.cos(x) * norm_pdf(x)

    value = integral_real_line(f)
    assert value == pytest.approx(math.exp(-0.5), abs=1e-10)
    monkeypatch.setattr(numerics, "_MAX_SUBDIVISIONS", 3)
    assert integral_real_line(f) == value
    monkeypatch.setattr(numerics, "_MAX_SUBDIVISIONS", 2)
    with pytest.raises(NonConvergence, match="after 2 subdivisions"):
        integral_real_line(f)


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


def test_batched_nonconvergence_names_the_failing_integral(monkeypatch):
    # theta = 50 needs far more than the 2 bisections of its first round; the
    # others converge at once
    monkeypatch.setattr(numerics, "_MAX_SUBDIVISIONS", 2)
    nodes = []

    def f(x, theta):
        nodes.append(x.size)
        return np.abs(np.sin(theta * x))

    with pytest.raises(
        NonConvergence,
        match=r"quadrature error \d\.\d{3}e[-+]\d+ above tolerance 1\.000e-10 "
        r"after 2 subdivisions at parameter 50\.0$",
    ):
        gauss_weighted_integrals(f, np.array([0.0, 50.0, 0.0]))
    # the failure is raised in the round the lone integral would raise it
    assert sum(nodes) == 15 * (3 * 8 + 2 * 2)


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


def test_mills_out_buffer_gets_the_same_values():
    xs = np.array([-1e8, -30.0, -3.0, -0.0, 0.0, 2.5, 10.0, 38.0])
    fresh = mills_ratio(xs)
    out = np.empty_like(xs)
    assert mills_ratio(xs, out=out) is out
    assert np.array_equal(out, fresh)
    # in place: the input itself receives the ratios
    ys = xs.copy()
    assert mills_ratio(ys, out=ys) is ys
    assert np.array_equal(ys, fresh)


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
    with pytest.raises(NonConvergence, match="same sign"):
        find_root(lambda x: x * x, 1.0, 2.0)
    # the product of the end values underflows to 0; their signs still agree
    with pytest.raises(NonConvergence, match="same sign"):
        find_root(lambda x: 1e-200 * (1.0 + x), 0.0, 1.0)


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
    # below tol, the relative x-tolerance of about 1.5e-8 |x| takes over
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


def test_nan_objective_is_a_numerical_failure():
    with pytest.raises(NonConvergence, match=r"^find_root: the function value at x=0\.5 is NaN"):
        find_root(lambda x: math.nan if 0.2 < x < 0.9 else x - 0.5, 0.0, 1.0)
    with pytest.raises(NonConvergence, match=r"^find_root: the function value at x=1\.0 is NaN"):
        find_root(lambda x: -1.0 if x < 1.0 else math.nan, 0.0, 1.0)
    with pytest.raises(NonConvergence, match=r"^minimize_1d: the function value at x=0\.6\d* is NaN"):
        minimize_1d(lambda x: math.nan if x > 0.5 else (x - 0.7) ** 2, 0.0, 1.0, 1e-9)


def test_exhausted_solver_budgets_are_numerical_failures():
    # a step on a bracket of width 2e300: bisection would need ~1000 halvings
    step = lambda x: 1.0 if x > 1.0 / 3.0 else -1.0
    with pytest.raises(NonConvergence, match=r"^find_root: no convergence in 100 iterations"):
        find_root(step, -1e300, 1e300, 1e-12)
    # |x| on [-1e300, 1e300]: 500 evaluations leave the interval far above 1e-12
    with pytest.raises(NonConvergence, match=r"^minimize_1d: no convergence in 500 evaluations"):
        minimize_1d(abs, -1e300, 1e300, 1e-12)


# ------------------------------------------- parity with SciPy, the test oracle


def _counted(f):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    return counted, calls


def _assert_find_root_is_scipys(f, lo, hi, tol):
    """find_root's root is brentq's bit for bit, with 2 fewer evaluations of f.

    The SciPy route is find_root's bracket check followed by brentq, which
    evaluates both ends again; find_root passes its end values to the loop.
    """
    port, port_calls = _counted(f)
    ref, ref_calls = _counted(f)
    root = find_root(port, lo, hi, tol)
    ends = ref(lo), ref(hi)
    assert root == brentq(ref, lo, hi, xtol=tol, rtol=8.9e-16)
    assert 0.0 not in ends
    assert len(port_calls) == len(ref_calls) - 2


def _assert_minimize_is_scipys(f, lo, hi, tol):
    """minimize_1d's (x, f(x)) and evaluation count are SciPy's bounded search's."""
    port, port_calls = _counted(f)
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": tol})
    assert res.status == 0
    assert minimize_1d(port, lo, hi, tol) == (float(res.x), float(res.fun))
    assert len(port_calls) == res.nfev


@pytest.mark.parametrize("tol", [1e-5, 1e-9, 1e-12])
@pytest.mark.parametrize("step", [None, 0.1], ids=["smooth", "rounded"])
def test_solvers_match_scipy_on_random_objectives(tol, step):
    # rounding to multiples of `step` makes ties, which the port must break
    # as SciPy does
    rng = np.random.default_rng(8008)
    for _ in range(60):
        c = rng.normal(size=6)

        def f(x, c=c):
            v = float(np.polyval(c, x) + c[0] * math.sin(3.0 * x))
            return v if step is None else step * round(v / step)

        _assert_minimize_is_scipys(f, -2.0, 2.0, tol)
        if f(-2.0) != f(2.0):
            mid = 0.5 * (f(-2.0) + f(2.0))
            _assert_find_root_is_scipys(lambda x, f=f, mid=mid: f(x) - mid, -2.0, 2.0, tol)


def _record_solver_calls(monkeypatch, module, calls):
    """Make `module` record every (solver, f, lo, hi, tol) it passes to numerics.

    A solver the module does not import is bound too, and never called.
    """
    for name in ("find_root", "minimize_1d"):

        def record(f, lo, hi, tol=1e-12, name=name, real=getattr(numerics, name)):
            calls.append((name, f, lo, hi, tol))
            return real(f, lo, hi, tol)

        monkeypatch.setattr(module, name, record, raising=False)


def test_solvers_match_scipy_on_the_package_objectives(params, monkeypatch):
    # the coord margin at the study point (the edge root after a positive
    # probe at P = 0.03; peak search and edge root at P = 0.023, just above
    # the minimum power, where the probe's margin is negative), the lin-dpc
    # residual (peak search and left root) and cost, the dpc cubic
    calls = []
    _record_solver_calls(monkeypatch, skewnormal, calls)
    _record_solver_calls(monkeypatch, strategies, calls)
    _record_solver_calls(monkeypatch, gaussian_oracles, calls)
    skewnormal.mmse_coord(0.03, params)
    skewnormal.mmse_coord(0.023, params)
    coord = len(calls)
    strategies.mmse_lin_dpc(0.005, params)
    strategies.mmse_lin_dpc(0.02, params)
    lin_dpc = len(calls)
    gaussian_oracles.dpc_critical_power(params)
    kinds = [name for name, *_ in calls]
    assert kinds[:coord] == ["find_root", "minimize_1d", "find_root"]
    assert kinds[coord:lin_dpc] == ["minimize_1d", "minimize_1d", "minimize_1d", "find_root"]
    assert kinds[lin_dpc:] == ["find_root"]
    for name, f, lo, hi, tol in calls:
        if name == "find_root":
            _assert_find_root_is_scipys(f, lo, hi, tol)
        else:
            _assert_minimize_is_scipys(f, lo, hi, tol)


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
