import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from witsenhausen import numerics, strategies
from witsenhausen.montecarlo import _two_point_decoder
from witsenhausen.core import EmptyFeasibleSet, validate_params
from scipy.integrate import trapezoid

from witsenhausen.numerics import norm_pdf
from witsenhausen.strategies import (
    STRATEGIES,
    LinearPolicy,
    TwoPointPolicy,
    curve,
    dpc_alpha,
    linear_policy_for_power,
    mmse_dpc,
    mmse_gaussian,
    mmse_lin_dpc,
    mmse_linear,
    timeshare_interval,
    two_point_cost_grid,
    two_point_costs,
    two_point_gain_for_power,
    two_point_min_power,
)
from witsenhausen.strategies import _dirty_paper_cost

from gaussian_oracles import dpc_critical_power
from grid_search import minimize_1d as grid_minimize


# ------------------------------------------------------------------ linear


def test_linear_full_cancellation(params):
    assert mmse_linear(params.Q, params) == 0.0
    assert mmse_linear(2 * params.Q, params) == 0.0


def test_linear_no_control(params):
    Q, N = params.Q, params.N
    assert mmse_linear(0.0, params) == pytest.approx(Q * N / (Q + N), rel=1e-14)
    assert mmse_linear(0.0, params) == pytest.approx(0.0090909, abs=1e-7)


def test_linear_study_point(params):
    g = (math.sqrt(0.1) - math.sqrt(0.04)) ** 2
    assert mmse_linear(0.04, params) == pytest.approx(g * 0.01 / (g + 0.01), rel=1e-14)
    assert mmse_linear(0.04, params) == pytest.approx(0.00575, abs=5e-6)


def test_linear_policy_gains(params):
    Q = params.Q
    assert linear_policy_for_power(0.0, params) == LinearPolicy(0.0, 0.0)
    assert linear_policy_for_power(Q, params) == LinearPolicy(-1.0, 0.0)
    assert linear_policy_for_power(2 * Q, params) == LinearPolicy(-1.0, math.sqrt(Q))


def test_linear_policy_meets_power_budget(params):
    for P in np.linspace(0.0, 3 * params.Q, 31):
        pol = linear_policy_for_power(float(P), params)
        assert pol.a**2 * params.Q + pol.b**2 == pytest.approx(P, abs=1e-12)


# -------------------------------------------------------------- time share


def test_timeshare_interval_study_point(params):
    p1, p2 = timeshare_interval(params)
    assert p1 == pytest.approx(0.001270166537925832, abs=1e-15)
    assert p2 == pytest.approx(0.07872983346207417, abs=1e-15)
    # independent check: they are the roots of P^2 - (Q-2N) P + N^2
    assert p1 + p2 == pytest.approx(params.Q - 2 * params.N, abs=1e-12)
    assert p1 * p2 == pytest.approx(params.N**2, abs=1e-12)


def test_timeshare_interval_regime_boundary():
    with pytest.raises(ValueError, match="requires Q > 4N"):
        timeshare_interval(validate_params(0.04, 0.01))
    with pytest.raises(ValueError, match="requires Q > 4N"):
        timeshare_interval(validate_params(1.0, 1.0))


def test_timeshare_interval_vanishing_noise_limit():
    p = validate_params(0.1, 1e-9)
    p1, p2 = timeshare_interval(p)
    assert p1 == pytest.approx(0.0, abs=1e-7)
    assert p2 == pytest.approx(p.Q, abs=1e-7)


# ---------------------------------------------------------------- gaussian


def test_gaussian_study_point(params):
    assert mmse_gaussian(0.04, params) == pytest.approx(0.005, abs=1e-15)


def test_gaussian_continuity_at_interval_edges(params):
    p1, p2 = timeshare_interval(params)
    for edge in (p1, p2):
        assert mmse_gaussian(edge, params) == pytest.approx(
            mmse_linear(edge, params), abs=1e-9
        )


def test_gaussian_collapses_outside_regime():
    p = validate_params(1.0, 1.0)
    for P in np.linspace(0.0, 1.0, 11):
        assert mmse_gaussian(float(P), p) == mmse_linear(float(P), p)


def test_gaussian_is_chord_of_linear_cost(params):
    p1, p2 = timeshare_interval(params)
    s1, s2 = mmse_linear(p1, params), mmse_linear(p2, params)
    for P in np.linspace(p1, p2, 101):
        chord = s1 + (s2 - s1) * (P - p1) / (p2 - p1)
        assert mmse_gaussian(float(P), params) == pytest.approx(chord, abs=1e-9)


def test_gaussian_never_above_linear(params):
    for P in np.linspace(0.0, params.Q, 101):
        assert mmse_gaussian(float(P), params) <= mmse_linear(float(P), params) + 1e-15


# --------------------------------------------------------------- two-point


def test_two_point_zero_magnitude(params):
    P, S = two_point_costs(TwoPointPolicy(0.0), params)
    assert P == params.Q
    assert S == 0.0


def test_two_point_minimum_power(params):
    a = math.sqrt(2 * params.Q / math.pi)
    P, _ = two_point_costs(TwoPointPolicy(a), params)
    assert P == pytest.approx(two_point_min_power(params), abs=1e-12)
    assert P == pytest.approx(0.0363380, abs=1e-7)


def test_two_point_matches_witsenhausens_benchmark():
    # Witsenhausen's benchmark k = 0.2, sigma = 5 is (Q, N) = (25, 1) here,
    # with total cost J = k^2 P + S. His two-point policy at a = sigma has the
    # published J = 0.4042 (SIAM J. Control 6(1), 1968): our value,
    # 0.404253..., matches it to four decimals by truncation (it rounds to
    # 0.4043).
    P, S = two_point_costs(TwoPointPolicy(5.0), validate_params(25.0, 1.0))
    J = 0.04 * P + S
    assert 0.4042 <= J < 0.4043


def test_two_point_mmse_against_trapezoid_oracle(params):
    for a in (0.05, math.sqrt(2 * params.Q / math.pi), math.sqrt(params.Q), 0.5):
        _, S = two_point_costs(TwoPointPolicy(a), params)
        kappa = a / math.sqrt(params.N)
        t = np.linspace(-14.0, 14.0, 800_001)
        oracle = float(
            math.sqrt(2 * math.pi)
            * a
            * a
            * norm_pdf(kappa)
            * trapezoid(norm_pdf(t) / np.cosh(kappa * t), t)
        )
        assert S == pytest.approx(oracle, abs=1e-10)


def test_two_point_power_curve_shape(params):
    m = math.sqrt(2 * params.Q / math.pi)
    a_dec = np.linspace(0.0, m, 50)
    a_inc = np.linspace(m, 3 * math.sqrt(params.Q), 50)
    p_dec = [two_point_costs(TwoPointPolicy(float(a)), params)[0] for a in a_dec]
    p_inc = [two_point_costs(TwoPointPolicy(float(a)), params)[0] for a in a_inc]
    assert all(b < a for a, b in zip(p_dec, p_dec[1:]))
    assert all(b > a for a, b in zip(p_inc, p_inc[1:]))


def test_two_point_survives_extreme_gain_over_noise():
    # kappa = 500: exp(-kappa^2/2) underflows, so the cost is exactly 0 with
    # no integral run, and cosh(kappa t), which overflows from kappa t ~ 710,
    # is never formed
    p = validate_params(0.1, 1e-6)
    _, S = two_point_costs(TwoPointPolicy(0.5), p)
    assert S == 0.0


def _last_nonzero_prefactor(params, lo, hi):
    """Adjacent magnitudes lo < hi with a nonzero and a zero two-point prefactor.

    Bisection between a magnitude lo whose prefactor is nonzero and one hi
    whose prefactor is 0, down to neighbouring floats.
    """

    def nonzero(a):
        return strategies._two_point_prefactor(
            a / math.sqrt(params.Q), a / math.sqrt(params.N)
        ) != 0.0

    assert nonzero(lo) and not nonzero(hi)
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if nonzero(mid) else (lo, mid)
    return lo, hi


def test_two_point_cost_grid_equals_the_scalar_costs(params):
    # magnitudes from 0 through the curve's range, across the last nonzero
    # prefactor (a = 3.873 here), to where the cost underflows
    edge = _last_nonzero_prefactor(params, 1.0, 10.0)
    a = np.concatenate(
        [[0.0], np.linspace(0.01, 3.0 * math.sqrt(params.Q), 90), edge, [40.0, 1e154]]
    )
    powers, costs = two_point_cost_grid(a, params)
    for x, p, s in zip(a, powers, costs):
        assert (p, s) == two_point_costs(TwoPointPolicy(float(x)), params)
    assert costs[0] == 0.0 and costs[-1] == 0.0
    for bad in ([0.1, -0.1], [0.1, 1e200], [math.nan]):
        with pytest.raises(ValueError):
            two_point_cost_grid(np.array(bad), params)


def test_two_point_cost_skips_the_integral_where_the_prefactor_is_zero(params, monkeypatch):
    integrand = strategies._two_point_integrand
    lo, hi = _last_nonzero_prefactor(params, 1.0, 10.0)
    seen = []

    def recording(t, kappa):
        seen.append(np.unique(kappa))
        return integrand(t, kappa)

    def failing(t, kappa):
        raise AssertionError(f"integrand called at kappa={kappa}")

    monkeypatch.setattr(strategies, "_two_point_integrand", failing)
    zero = [hi, 5.0, 1e154]
    for a in zero:
        assert two_point_costs(TwoPointPolicy(a), params)[1] == 0.0
    assert np.all(two_point_cost_grid(zero, params)[1] == 0.0)
    monkeypatch.setattr(strategies, "_two_point_integrand", recording)
    mixed = np.array([0.0, 0.5, hi, lo, 40.0, 0.3])
    _, costs = two_point_cost_grid(mixed, params)
    assert costs[[0, 2, 4]].tolist() == [0.0, 0.0, 0.0]
    assert costs[1] > 0.0 and costs[5] > 0.0
    kappas = np.unique(np.concatenate(seen))
    assert kappas.tolist() == sorted(x / math.sqrt(params.N) for x in (0.5, lo, 0.3))


def test_two_point_cost_is_zero_where_the_gain_overflows():
    # u = a / sqrt(Q) overflows at a subnormal Q; kappa^2 then overflows too
    # (N <= DBL_MAX Q), and the cost is exactly 0, not inf - inf
    p = validate_params(1e-320, 1e-300)
    P, S = two_point_costs(TwoPointPolicy(1e150), p)
    assert math.isfinite(P) and S == 0.0
    powers, costs = two_point_cost_grid([0.0, 5e149, 1e150], p)
    assert costs.tolist() == [0.0, 0.0, 0.0]
    assert np.all(np.isfinite(powers))


def test_two_point_curve_equals_the_scalar_costs(params):
    grid = np.linspace(0.0, 0.3, 31)
    for P, pt in zip(grid, curve("two-point", params, grid)):
        a = two_point_gain_for_power(float(P), params)
        if a is None:
            assert pt.S is None
        else:
            assert pt.S == two_point_costs(TwoPointPolicy(a), params)[1]
            assert pt.aux1 == a


def test_two_point_decoder_properties():
    # the simulator's slice step, in place in the outputs
    ys = np.linspace(-0.5, 0.5, 11)
    est = ys.copy()
    _two_point_decoder(est, 0.3, 0.01)
    assert est == pytest.approx(
        [0.3 * math.tanh(0.3 * y / 0.01) for y in ys], rel=1e-15
    )
    # 0 at 0, the magnitude far out, and odd
    est = np.array([0.0, 1e9, -0.5, -0.01, 0.2, 0.5, 0.01, -0.2])
    _two_point_decoder(est, 0.3, 0.01)
    assert est[0] == 0.0
    assert est[1] == pytest.approx(0.3, rel=1e-12)
    assert np.array_equal(est[2:5], -est[5:])


def test_two_point_power_inversion(params):
    pmin = two_point_min_power(params)
    assert two_point_gain_for_power(0.9 * pmin, params) is None
    for P in np.linspace(pmin, 3 * params.Q, 17):
        a = two_point_gain_for_power(float(P), params)
        assert a >= math.sqrt(2 * params.Q / math.pi) - 1e-12
        assert two_point_costs(TwoPointPolicy(a), params)[0] == pytest.approx(
            float(P), abs=1e-10
        )


# --------------------------------------------------------------------- dpc


def test_dpc_critical_power(params):
    p_star = dpc_critical_power(params)
    Q, N = params.Q, params.N
    assert abs(p_star**2 * (p_star + Q + N) - Q * N * N) <= 1e-12
    assert p_star == pytest.approx(0.009160797830996154, abs=1e-12)


def test_dpc_critical_power_vanishing_noise_limit():
    p = validate_params(0.1, 1e-12)
    assert dpc_critical_power(p) <= 2e-12


def test_dpc_zero_power_is_plain_mmse(params):
    Q, N = params.Q, params.N
    assert mmse_dpc(0.0, params) == pytest.approx(Q * N / (Q + N), abs=1e-15)
    assert mmse_dpc(0.0, params) == mmse_linear(0.0, params)


@given(log_q=st.floats(-2.0, 1.0), log_ratio=st.floats(-4.0, 1.0))
@example(log_q=-1.0, log_ratio=-1.0)  # the study point (0.1, 0.01)
@settings(max_examples=200, deadline=None)
def test_dpc_continuous_at_critical_power(log_q, log_ratio):
    # p* is the root of the cubic; the cost's exact zero comes from the sign of
    # its residual, so the two must agree at the critical power
    Q = 10.0**log_q
    params = validate_params(Q, Q * 10.0**log_ratio)
    p_star = dpc_critical_power(params)
    assert mmse_dpc(p_star, params) <= 1e-8 * params.N
    assert mmse_dpc(p_star * (1.0 - 1e-9), params) > 0.0
    assert mmse_dpc(p_star * (1.0 + 1e-12), params) == 0.0
    for P in np.linspace(p_star, 3.0 * Q, 9):
        assert mmse_dpc(float(P) * (1.0 + 1e-12), params) == 0.0


def test_dpc_alpha_satisfies_power_constraint_with_equality(params):
    # the precoding coefficient is a root of the feasibility quadratic
    Q, N = params.Q, params.N
    p_star = dpc_critical_power(params)
    for P in np.linspace(p_star / 50, p_star, 50):
        a = dpc_alpha(float(P), params)
        residual = P * (P + Q + N) - P * Q * (1 - a) ** 2 - N * (P + a * a * Q)
        assert abs(residual) <= 1e-10


# ----------------------------------------------------------------- lin-dpc


def test_lin_dpc_zero_power(params):
    v, _ = mmse_lin_dpc(0.0, params)
    assert v == pytest.approx(params.Q * params.N / (params.Q + params.N), abs=1e-15)


def test_lin_dpc_endpoint_is_linear(params):
    # rho = -1 shifts all power into the linear part
    Q, N = params.Q, params.N
    for P in (0.01, 0.04, 0.09):
        g = (math.sqrt(Q) - math.sqrt(P)) ** 2
        cost = Q * _dirty_paper_cost(P / Q, N / Q, -1.0)[0]
        assert cost == pytest.approx(g * N / (g + N), rel=1e-12)


def test_lin_dpc_dominates_components(params):
    for p, powers in (
        (params, np.linspace(0.0, params.Q, 41)),
        # up to 3Q: above Q the linear part cancels the state, so the cost is 0
        (validate_params(1.0, 1e-4), np.linspace(0.0, 3.0, 301)),
    ):
        for P in powers:
            v, _ = mmse_lin_dpc(float(P), p)
            assert v <= mmse_dpc(float(P), p) + 1e-12
            assert v <= mmse_linear(float(P), p) + 1e-12
            assert v >= 0.0


def test_lin_dpc_search_stops_at_its_first_positive_residual(params, monkeypatch):
    # at P = 0.02 the residual is positive at the search's first point, which
    # brackets its left root with rho = -1; at P = 0.005 it is negative for
    # every rho, so the search runs to the peak and the cost is minimized
    searches = []
    real = numerics.minimize_1d

    def recording(f, lo, hi, tol, **kwargs):
        evals = []

        def g(x):
            evals.append(x)
            return f(x)

        searches.append((f, lo, hi, tol, evals))
        return real(g, lo, hi, tol, **kwargs)

    monkeypatch.setattr(strategies, "minimize_1d", recording)
    assert mmse_lin_dpc(0.02, params)[0] == 0.0
    assert [len(evals) for *_, evals in searches] == [1]
    searches.clear()
    assert mmse_lin_dpc(0.005, params)[0] > 0.0
    assert len(searches) == 2
    f, lo, hi, tol, evals = searches[0]
    full = []

    def g(x):
        full.append(x)
        return f(x)

    real(g, lo, hi, tol)
    assert evals == full


def lin_dpc_residual_oracle(P, params):
    """The unsquared dirty-paper residual r(rho), written out independently.

    Evaluated in 50-digit decimal arithmetic: in floats, sqrt(Q) + rho sqrt(P)
    and P + Q + 2 rho sqrt(PQ) cancel to exactly 0 at rho = -1 and
    P = Q - 1 ulp, where the exact residual is a tiny negative number.
    """
    Q, N, P_ = (Decimal(x) for x in (params.Q, params.N, P))

    def r(rho):
        with localcontext() as ctx:
            ctx.prec = 50
            rho = Decimal(rho)
            t = P_ + Q + 2 * rho * (P_ * Q).sqrt()
            return float(
                P_ * (1 - rho * rho) * (t + N).sqrt() - N * (Q.sqrt() + rho * P_.sqrt())
            )

    return r


@given(
    log_q=st.floats(-2.0, 1.0),
    log_ratio=st.floats(-4.0, 1.0),
    u=st.floats(0.0, 3.0, exclude_min=True),
)
# P one rounding step below Q, where the float residual cancels to 0 at rho = -1
@example(log_q=0.5, log_ratio=1.0, u=1.0 - 2.0**-53)
@example(log_q=-1.0, log_ratio=0.0, u=1.0 - 2.0**-53)
@settings(max_examples=300, deadline=None)
def test_lin_dpc_matches_grid_oracle(log_q, log_ratio, u):
    Q = 10.0**log_q
    params = validate_params(Q, Q * 10.0**log_ratio)
    P = u * Q
    S, rho = mmse_lin_dpc(P, params)
    if P >= Q:
        # the linear part cancels the state
        assert S == 0.0 and rho == -math.sqrt(Q / P)
        return
    r = lin_dpc_residual_oracle(P, params)
    _, neg_peak = grid_minimize(lambda x: -r(x), -1.0, 1.0, grid=401, tol=1e-12)
    if neg_peak <= 0.0:
        # exact zero at the left root of r: r(rho) = 0 up to rounding, and
        # r < 0 before it
        assert S == 0.0
        N = params.N
        scale = P * math.sqrt(P + Q + N) + N * (math.sqrt(Q) + math.sqrt(P))
        assert abs(r(rho)) <= 1e-11 * scale
        assert all(r(float(x)) < 0.0 for x in np.linspace(-1.0, rho, 101)[:-1])
        return
    _, oracle = grid_minimize(
        lambda x: Q * _dirty_paper_cost(P / Q, params.N / Q, x)[0],
        -1.0, 1.0, grid=401, tol=1e-12,
    )
    assert S == pytest.approx(oracle, rel=1e-10)
    assert S <= oracle * (1.0 + 1e-10)


def assert_cost_scales(strategy, log_q, log_ratio, u, k):
    """S(cP; cQ, cN) = c S(P; Q, N): the cost has the units of the variances.

    c = 2^k, k in [-30, 30], spans about [1e-9, 1e9] and scales P, Q and N
    exactly, so both problems are the same up to the program's own rounding
    (near P = Q the cost depends on the last bits of Q - P).
    """
    Q, c = 10.0**log_q, 2.0**k
    N = Q * 10.0**log_ratio
    (pt,) = curve(strategy, validate_params(Q, N), [u * Q])
    (scaled,) = curve(strategy, validate_params(c * Q, c * N), [c * (u * Q)])
    assert (scaled.S is None) == (pt.S is None)
    if pt.S is not None:
        # abs: below the normal range, floats carry no relative precision
        assert scaled.S / c == pytest.approx(pt.S, rel=1e-10, abs=1e-300)


SCALE_DRAWS = dict(
    log_q=st.floats(-2.0, 1.0),
    log_ratio=st.floats(-4.0, 1.0),
    k=st.integers(-30, 30),
)


@pytest.mark.parametrize("strategy", [s for s in STRATEGIES if s != "coord"])
@given(u=st.floats(0.0, 3.0), **SCALE_DRAWS)
# P one rounding step below Q, where sqrt(Q) - sqrt(P) would be all rounding
@example(u=1.0 - 2.0**-53, log_q=0.0, log_ratio=0.0, k=1)
@example(u=1.0 - 2.0**-53, log_q=0.0, log_ratio=1.0, k=1)
# a small scale, where a tolerance absolute in power units would show
@example(u=0.9, log_q=-2.0, log_ratio=-1.0, k=-29)
@settings(max_examples=60, deadline=None)
def test_cost_scales_with_the_variances(strategy, log_q, log_ratio, u, k):
    assert_cost_scales(strategy, log_q, log_ratio, u, k)


@given(u=st.floats(0.0, 1.0), **SCALE_DRAWS)
@settings(max_examples=20, deadline=None)
def test_coord_cost_scales_with_the_variances(log_q, log_ratio, u, k):
    assert_cost_scales("coord", log_q, log_ratio, u, k)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("Q, N", [(0.1, 0.01), (1.0, 0.5)])
@given(k=st.integers(-990, 990))
@example(k=-990)
@example(k=-1)
@example(k=1)
@example(k=990)
@settings(max_examples=6, deadline=None)
def test_costs_scale_bit_exactly(strategy, Q, N, k):
    # every family evaluates S = Q S(P/Q; 1, N/Q), and with c = 2^k the
    # powers P/Q and the ratio N/Q are the same doubles at both scales, so
    # c S is exact. Two-point writes its magnitude in units of sqrt(Q) and
    # prices that magnitude, which is exact where sqrt(c) is a power of 2.
    if strategy == "two-point":
        k -= k % 2
    c = 2.0**k
    # the powers 0 and >= Q and dpc past its critical power give exact
    # zeros, and every other cost keeps c S in the normal range
    grid = [u * Q for u in (0.0, 0.05, 0.3, 0.55, 0.8, 1.0, 1.5)]
    base = curve(strategy, validate_params(Q, N), grid)
    scaled = curve(strategy, validate_params(c * Q, c * N), [c * P for P in grid])
    for pt, sc in zip(base, scaled):
        assert (sc.S is None) == (pt.S is None)
        if pt.S is not None:
            assert sc.S == c * pt.S
            assert sc.S == 0.0 or sc.S >= sys.float_info.min


@pytest.mark.parametrize(
    "family",
    [mmse_linear, linear_policy_for_power, mmse_gaussian, mmse_dpc, mmse_lin_dpc],
)
@pytest.mark.parametrize("P", [-1e-3, math.inf, math.nan])
def test_power_must_be_nonnegative_and_finite(params, family, P):
    with pytest.raises(ValueError, match="nonnegative and finite"):
        family(P, params)


# ------------------------------------------------------------------- curve


def test_curve_linear_monotone(params):
    points = curve("linear", params, np.linspace(0.0, params.Q, 50))
    s = [pt.S for pt in points]
    assert all(b <= a for a, b in zip(s, s[1:]))
    assert all(pt.S is not None for pt in points)


def test_curve_gaussian_affine_segment(params):
    p1, p2 = timeshare_interval(params)
    grid = np.linspace(p1, p2, 20)
    s = np.array([pt.S for pt in curve("gaussian", params, grid)])
    second_diff = np.diff(s, n=2)
    assert np.max(np.abs(second_diff)) <= 1e-12


def test_curve_two_point_marks_unreachable_powers(params):
    pmin = two_point_min_power(params)
    points = curve("two-point", params, [pmin / 2, pmin * 1.1, params.Q])
    assert points[0].S is None
    assert points[1].S is not None and points[2].S is not None


def test_curve_coord_flags_infeasible_rows(params):
    points = curve("coord", params, [0.001, 0.005])
    assert all(pt.S is None for pt in points)


def test_curve_rejects_unknown_strategy(params):
    with pytest.raises(ValueError, match="unknown strategy"):
        curve("secret", params, [0.0, 0.1])


def test_curve_rejects_bad_grids(params):
    with pytest.raises(ValueError):
        curve("linear", params, [0.1, 0.1])
    with pytest.raises(ValueError):
        curve("linear", params, [-0.1, 0.1])
