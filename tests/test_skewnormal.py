import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid
from scipy.special import log_ndtr

from witsenhausen import numerics, skewnormal
from scipy.special import ndtr as norm_cdf

from witsenhausen.core import EmptyFeasibleSet, power_split, validate_params
from witsenhausen.numerics import norm_pdf
from witsenhausen.skewnormal import (
    EDGE_RHO_TOL,
    CoordPolicy,
    coord_ic_margin,
    coord_min_power,
    coord_mmse_at_rho,
    entropy_reduction,
    ic_feasible,
    mmse_coord,
    skew_cond_mean,
)
from witsenhausen.strategies import two_point_decoder, two_point_min_power

from gaussian_oracles import DegenerateInput
from grid_search import minimize_1d
from skew_oracles import (
    cov_interim_output_precoder,
    cov_state_precoder,
    dropped_odd_term,
    mmse_via_conditional_density,
    sign_conditioned_entropies,
    skew_cond_variance,
)

LN2 = math.log(2.0)
LOG2_2PIE = math.log2(2.0 * math.pi * math.e)


def psi_trapezoid(alpha: float, n: int = 1_000_001) -> float:
    x = np.linspace(-12.0, 12.0, n)
    lp = log_ndtr(alpha * x)
    t = 2.0 * np.exp(lp)
    integrand = np.where(t > 0.0, t * (lp + LN2) / LN2, 0.0)
    return float(trapezoid(integrand * norm_pdf(x), x))


# ------------------------------------------------------- entropy reduction


def test_psi_zero_is_exact():
    assert entropy_reduction(0.0) == 0.0


def test_psi_even():
    for alpha in (0.5, 2.0, 5.0):
        assert entropy_reduction(-alpha) == pytest.approx(
            entropy_reduction(alpha), abs=1e-12
        )


def test_psi_array_equals_scalar_calls_and_is_even():
    # both sides of each switch: 1 between the two series, 500 between the
    # series and the quadrature
    switches = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
                500.0, np.nextafter(500.0, np.inf)]
    grid = np.concatenate(
        [np.linspace(-10.0, 10.0, 161), np.geomspace(1e-3, 300.0, 40), [-math.inf, math.inf],
         [0.0, 5e-324], switches, np.geomspace(1.0 + 2**-30, 500.0, 13), [600.0, -1e4]]
    )
    vals = entropy_reduction(grid)
    assert vals.shape == grid.shape
    # bit for bit: the array pass runs the float path's operations in its order
    assert vals.tobytes() == np.array([entropy_reduction(a) for a in grid.tolist()]).tobytes()
    assert vals.tobytes() == np.array([entropy_reduction(-a) for a in grid.tolist()]).tobytes()
    assert entropy_reduction(grid.reshape(9, -1)).tolist() == vals.reshape(9, -1).tolist()


def test_psi_of_0d_and_empty_arrays():
    for a in [0.0, 1.0, 3.5, 600.0, -math.inf]:
        v = entropy_reduction(np.array(a))
        assert type(v) is float and v == entropy_reduction(a)
    for shape in [(0,), (2, 0)]:
        assert entropy_reduction(np.empty(shape)).shape == shape


def test_psi_exact_values_inside_an_array():
    vals = entropy_reduction(np.array([-math.inf, -2.0, 0.0, -0.0, 2.0, math.inf]))
    assert vals[[0, 5]].tolist() == [1.0, 1.0]
    assert vals[[2, 3]].tolist() == [0.0, 0.0]
    assert vals[1] == vals[4]
    assert entropy_reduction(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


def test_psi_nan_in_an_array_raises_before_any_quadrature(monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("Psi integrated before it checked for NaN")

    monkeypatch.setattr(skewnormal, "gauss_weighted_integral", no_quadrature)
    with pytest.raises(ValueError, match="NaN"):
        entropy_reduction(np.array([600.0, 2.0, math.nan, 0.5]))


def test_psi_matches_trapezoid_oracle():
    for alpha, frozen in [
        (0.5, 0.09831028238760285),
        (2.0, 0.5385034169849612),
        (5.0, 0.7963933255671833),
    ]:
        v = entropy_reduction(alpha)
        assert v == pytest.approx(psi_trapezoid(alpha), abs=1e-10)
        assert v == pytest.approx(frozen, abs=1e-12)


def test_psi_saturates_toward_one():
    v = entropy_reduction(1e6)
    assert 0.999 < v < 1.0
    assert entropy_reduction(math.inf) == 1.0


def test_psi_grid_shape_properties():
    grid = np.linspace(-10.0, 10.0, 201)
    vals = np.array([entropy_reduction(float(a)) for a in grid])
    assert np.all(vals >= 0.0) and np.all(vals < 1.0)
    assert np.allclose(vals, vals[::-1], atol=1e-10)
    half = vals[100:]  # alpha >= 0
    assert np.all(np.diff(half) >= -1e-12)


# ------------------------------------------------------------- CoordPolicy


def test_coord_policy_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        CoordPolicy(-1e-3, 0.0)
    for rho in (-1.5, 1.5):
        with pytest.raises(ValueError, match="outside"):
            CoordPolicy(0.04, rho)
    for bad in ((math.nan, 0.0), (math.inf, 0.0), (0.04, math.nan), (0.04, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            CoordPolicy(*bad)


@pytest.mark.parametrize("closed_form", [coord_ic_margin, coord_mmse_at_rho])
def test_coord_closed_forms_reject_a_power_above_q(params, closed_form):
    # P <= Q is a property of the policy in its problem: P = Q is valid, one
    # rounding step above it is not
    closed_form(CoordPolicy(params.Q, 0.0), params)
    for P in (math.nextafter(params.Q, math.inf), 0.2):
        with pytest.raises(ValueError, match=r"outside \[0, Q="):
            closed_form(CoordPolicy(P, 0.0), params)


# ------------------------------------------------- sign-conditioned entropies


def test_entropies_zero_correlation_full_power(params):
    q = params.Q
    h1, _, _ = sign_conditioned_entropies(CoordPolicy(q, 0.0), params)
    assert h1 == pytest.approx(0.5 * math.log2((2 * math.pi * math.e) ** 2 * q * q) - 1.0,
                               abs=1e-12)


def test_state_precoder_determinant_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = float(rng.uniform(0.05, 2.0))
        p = float(rng.uniform(0.01, 1.0)) * q
        rho = float(rng.uniform(-0.95, 0.95))
        cov = cov_state_precoder(CoordPolicy(p, rho), validate_params(q, 0.01))
        det = float(np.linalg.det(cov))
        assert det == pytest.approx(p * q * (1 - rho * rho), rel=1e-10)


def test_entropies_degenerate_inputs(params):
    with pytest.raises(DegenerateInput):
        sign_conditioned_entropies(CoordPolicy(0.04, 1.0), params)
    with pytest.raises(DegenerateInput):
        sign_conditioned_entropies(CoordPolicy(0.1, -1.0), params)


def test_output_entropy_below_gaussian_bound(params):
    for rho in (-0.5, 0.0, 0.5):
        _, h_out, _ = sign_conditioned_entropies(CoordPolicy(0.04, rho), params)
        T = power_split(0.04, params.Q, rho)[2]
        bound = 0.5 * math.log2(2 * math.pi * math.e * (T + params.N))
        assert h_out < bound  # strict for T > 0


def test_output_entropy_against_direct_integral(params):
    # brute-force differential entropy of the sign-conditioned output law
    _, h_out, _ = sign_conditioned_entropies(CoordPolicy(0.04, -0.4), params)
    T, N = power_split(0.04, params.Q, -0.4)[2], params.N
    sy = math.sqrt(T + N)
    y = np.linspace(-14 * sy, 14 * sy, 2_000_001)
    f = (
        2.0
        / sy
        * norm_cdf(y * math.sqrt(T / (N * (T + N))))
        * norm_pdf(y / sy)
    )
    mask = f > 0
    h_num = -float(np.trapezoid(f[mask] * np.log2(f[mask]), y[mask]))
    assert h_out == pytest.approx(h_num, abs=1e-10)


def test_joint_entropy_against_direct_double_integral(params):
    # brute-force differential entropy of the sign-conditioned
    # (output, precoder) law; exercises the joint skewness argument
    cp = CoordPolicy(0.04, -0.4)
    _, _, h_joint = sign_conditioned_entropies(cp, params)
    k3 = cov_interim_output_precoder(cp, params)
    kyw = k3[1:, 1:]
    kx = k3[0, 1:]
    kinv = np.linalg.inv(kyw)
    cond_sd = math.sqrt(k3[0, 0] - kx @ kinv @ kx)
    det = float(np.linalg.det(kyw))

    sy, sw = math.sqrt(kyw[0, 0]), math.sqrt(kyw[1, 1])
    ys = np.linspace(-10 * sy, 10 * sy, 2500)
    ws = np.linspace(-10 * sw, 10 * sw, 2500)
    yy, ww = np.meshgrid(ys, ws, indexing="ij")
    v = np.stack([yy.ravel(), ww.ravel()])
    quad = np.sum(v * (kinv @ v), axis=0)
    gauss = np.exp(-0.5 * quad) / (2 * math.pi * math.sqrt(det))
    f = 2.0 * gauss * norm_cdf((kx @ kinv @ v) / cond_sd)
    mask = f > 1e-300
    cell = (ys[1] - ys[0]) * (ws[1] - ws[0])
    h_num = -float(np.sum(f[mask] * np.log2(f[mask]))) * cell
    assert h_joint == pytest.approx(h_num, abs=1e-8)


# --------------------------------------------------------------- IC margin


def test_ic_margin_matches_entropy_decomposition(params):
    # two independently coded routes to the same constraint margin
    for P, rho in [(0.025, -0.3), (0.03, -0.5), (0.05, 0.2), (0.09, -0.8)]:
        cp = CoordPolicy(P, rho)
        h1, h2, h3 = sign_conditioned_entropies(cp, params)
        h_state = 0.5 * math.log2(2 * math.pi * math.e * params.Q)
        margin = coord_ic_margin(cp, params)
        assert type(margin) is float
        assert margin == pytest.approx(h1 - h3 + h2 - h_state, abs=1e-9)


def test_ic_margin_infeasible_when_noise_dominates():
    assert coord_ic_margin(CoordPolicy(0.05, 0.0), validate_params(0.1, 10.0)) < 0.0


def test_ic_margin_feasible_below_two_point_minimum_power(params):
    pmin_two = params.Q * (1 - 2 / math.pi)
    assert 0.03 < pmin_two
    assert coord_ic_margin(CoordPolicy(0.03, -0.3), params) > 0.0


def test_ic_margin_endpoint_correlations(params, monkeypatch):
    # rho = +-1 (and P = 0) carry no residual power: the margin is exactly the
    # lost sign bit, with no quadrature
    def no_quadrature(*args, **kwargs):
        raise AssertionError("Psi evaluated with no residual power")

    monkeypatch.setattr(skewnormal, "entropy_reduction", no_quadrature)
    for P, rho in [(0.04, 1.0), (0.04, -1.0), (0.0, 0.3)]:
        margin = coord_ic_margin(CoordPolicy(P, rho), params)
        assert margin == -1.0 and type(margin) is float
    # where the interim state vanishes too, the margin stays -inf
    assert coord_ic_margin(CoordPolicy(params.Q, -1.0), params) == -math.inf


# ------------------------------------------------ skew conditional moments


def test_skew_variance_at_zero_output():
    T, N = 0.09, 0.01
    sig2 = T * N / (T + N)
    assert skew_cond_variance(0.0, T, N) == pytest.approx(sig2 * (1 - 2 / math.pi),
                                                          rel=1e-12)


def test_skew_variance_limits():
    T, N = 0.09, 0.01
    sig2 = T * N / (T + N)
    assert skew_cond_variance(1e6, T, N) == pytest.approx(sig2, rel=1e-12)
    assert skew_cond_variance(-1e3 * math.sqrt(T + N), T, N) >= 0.0


def test_skew_variance_bounds_random_outputs():
    rng = np.random.default_rng(5)
    T, N = 0.12, 0.01
    sig2 = T * N / (T + N)
    y = rng.normal(scale=math.sqrt(T + N), size=1000)
    v = skew_cond_variance(y, T, N)
    assert np.all(v >= 0.0) and np.all(v <= sig2)


def test_skew_moments_against_binned_simulation():
    # truncated bivariate Gaussian, binned in the output
    rng = np.random.default_rng(99)
    T, N = 0.09, 0.01
    n = 4_000_000
    x1 = rng.normal(scale=math.sqrt(T), size=n)
    y = x1 + rng.normal(scale=math.sqrt(N), size=n)
    keep = x1 >= 0.0
    x1, y = x1[keep], y[keep]
    for y0 in (-0.15, 0.0, 0.12, 0.3):
        h = 0.004
        sel = np.abs(y - y0) < h
        count = int(sel.sum())
        assert count > 2000
        sample_var = float(np.var(x1[sel], ddof=1))
        predicted = skew_cond_variance(y0, T, N)
        stderr = sample_var * math.sqrt(2.0 / count)
        assert abs(sample_var - predicted) <= 5 * stderr + 5e-6
        sample_mean = float(np.mean(x1[sel]))
        mean_stderr = math.sqrt(sample_var / count)
        assert abs(sample_mean - skew_cond_mean(y0, T, N)) <= 5 * mean_stderr + 5e-4


def test_skew_mean_at_zero_output():
    T, N = 0.09, 0.01
    expected = math.sqrt(T * N / (T + N)) * math.sqrt(2 / math.pi)
    assert skew_cond_mean(0.0, T, N) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("k", [-300, -120, -1, 1, 120, 256, 300, 450])
def test_skew_mean_scales_with_the_variances(k):
    # 4^k times the variances and 2^k times the outputs give 2^k times the
    # means, bit for bit, also where the product T N overflows (k >= 256) or
    # underflows (k = -300): sigma^2 is formed as N (T/(T+N))
    T, N = 1.5, 0.75
    c, root_c = 4.0**k, 2.0**k
    if k >= 256:
        assert math.isinf((c * T) * (c * N))
    y = np.array([-40.0, -3.0, -0.4, -0.0, 0.0, 0.25, 2.0, 30.0])
    base = skew_cond_mean(y, T, N)
    scaled = root_c * y
    assert np.array_equal(skew_cond_mean(scaled, c * T, c * N), root_c * base)
    for v, b in zip(scaled, base):
        assert skew_cond_mean(float(v), c * T, c * N) == root_c * b
    # an out buffer, or the outputs themselves, receive the same means
    out = np.empty_like(scaled)
    assert skew_cond_mean(scaled, c * T, c * N, out=out) is out
    assert np.array_equal(out, root_c * base)
    assert skew_cond_mean(scaled, c * T, c * N, out=scaled) is scaled
    assert np.array_equal(scaled, root_c * base)


@pytest.mark.parametrize(
    "kernel, args",
    [
        (skew_cond_mean, (0.5, math.nan, 0.01)),
        (skew_cond_mean, (0.5, 0.1, math.inf)),
        (skew_cond_mean, (np.array([0.5]), 0.1, math.nan)),
        (two_point_decoder, (0.5, 0.3, math.nan)),
        (two_point_decoder, (np.array([0.5]), math.nan, 0.01)),
        (two_point_decoder, (0.5, math.inf, 0.01)),
        (entropy_reduction, (math.nan,)),
        (entropy_reduction, (np.array([600.0, math.nan, math.inf]),)),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_non_finite_kernel_input_is_a_usage_error(kernel, args):
    # NaN or an infinite parameter is bad input (exit 2), not a NaN output
    # or a failed quadrature; +-inf stays a valid alpha of Psi
    with pytest.raises(ValueError, match="finite|NaN"):
        kernel(*args)


# ------------------------------------------------------------- coord MMSE


FEASIBLE_PAIRS = [(0.025, -0.3), (0.03, -0.5), (0.05, -0.7), (0.08, -0.8), (0.1, -0.9)]


def test_closed_form_matches_conditional_variance_route(params):
    for P, rho in FEASIBLE_PAIRS:
        cp = CoordPolicy(P, rho)
        assert coord_ic_margin(cp, params) >= 0.0  # pairs must actually be feasible
        a = coord_mmse_at_rho(cp, params)
        b = mmse_via_conditional_density(cp, params)
        assert a == pytest.approx(b, abs=1e-10)


def test_closed_form_frozen_value(params):
    cp = CoordPolicy(0.03, -0.3)
    # frozen from the conditional-variance route (and a 2-D brute-force
    # integral during development, which agrees to its own grid error ~2e-8)
    assert coord_mmse_at_rho(cp, params) == pytest.approx(0.0070912025901810, abs=1e-12)


def test_odd_term_vanishes(params):
    for P, rho in FEASIBLE_PAIRS:
        cp = CoordPolicy(P, rho)
        assert abs(dropped_odd_term(cp, params)) <= 1e-10


def test_mmse_bounded_by_unconditional(params):
    for P, rho in FEASIBLE_PAIRS + [(0.04, 0.6), (0.01, 0.0)]:
        T, N = power_split(P, params.Q, rho)[2], params.N
        sig2 = T * N / (T + N)
        v = coord_mmse_at_rho(CoordPolicy(P, rho), params)
        assert 0.0 <= v <= sig2


def test_mmse_coord_infeasible_at_small_power(params):
    with pytest.raises(EmptyFeasibleSet):
        mmse_coord(0.005, params)


def test_mmse_coord_feasible_below_two_point_minimum(params):
    pmin_two = params.Q * (1 - 2 / math.pi)
    value, rho_star = mmse_coord(0.03, params)
    assert 0.03 < pmin_two
    assert math.isfinite(value) and value > 0.0
    assert -1.0 <= rho_star <= 1.0
    # optimum sits at the lower feasibility edge, within optimizer tolerance
    cp = CoordPolicy(0.03, rho_star)
    assert coord_ic_margin(cp, params) >= -1e-12
    assert coord_ic_margin(CoordPolicy(0.03, rho_star - 1e-3), params) < 0.0


def test_mmse_coord_never_worse_than_feasible_samples(params):
    value, _ = mmse_coord(0.05, params)
    for rho in np.linspace(-1.0, 1.0, 41):
        cp = CoordPolicy(0.05, float(rho))
        if coord_ic_margin(cp, params) >= 0.0:
            assert value <= coord_mmse_at_rho(cp, params) + 1e-12


def test_mmse_coord_monotone_decreasing(params):
    values = [mmse_coord(p, params)[0] for p in (0.03, 0.05, 0.07, 0.09)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_mmse_coord_frozen_study_value(params):
    value, rho_star = mmse_coord(0.03, params)
    assert value == pytest.approx(0.006523567118685, abs=1e-8)
    assert rho_star == pytest.approx(-0.55787, abs=1e-4)


def test_mmse_coord_zero_power_raises_without_quadrature(params, monkeypatch):
    calls = []
    real = skewnormal.entropy_reduction

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(skewnormal, "entropy_reduction", counted)
    with pytest.raises(EmptyFeasibleSet):
        mmse_coord(0.0, params)
    assert calls == []


def test_mmse_coord_full_power_at_the_vanishing_state_edge():
    # at P = Q the margin is -inf at rho = -1, where the interim state vanishes
    skewed = validate_params(1.0, 1e-4)
    value, rho_star = mmse_coord(1.0, skewed)
    assert math.isfinite(value) and value >= 0.0
    assert rho_star > -1.0


def test_full_power_feasible_set_is_two_intervals(params):
    # at P = Q the interim state vanishes as rho -> -1, and the margin stays
    # >= 0 there; it dips below 0 around 1 + rho = 1e-2 and is >= 0 again
    # from the edge mmse_coord returns
    def margin(rho):
        return coord_ic_margin(CoordPolicy(params.Q, rho), params)

    assert margin(-1.0 + 1e-6) >= 0.0
    assert margin(-1.0 + 1e-2) < -0.01
    _, rho_star = mmse_coord(params.Q, params)
    assert ic_feasible(margin(rho_star)) and rho_star > -1.0 + 1e-2


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="at P = Q mmse_coord returns the edge of the right one of two feasible "
    "intervals, not the minimum near rho = -1",
)
def test_mmse_coord_at_full_power_is_no_worse_than_a_feasible_rho_near_minus_one(params):
    # S = 9.07e-4 at rho* = -0.98622, against 7.3e-8 at the feasible -1 + 1e-6
    near = CoordPolicy(params.Q, -1.0 + 1e-6)
    S, _ = mmse_coord(params.Q, params)
    assert S <= coord_mmse_at_rho(near, params)


@pytest.mark.parametrize("x", [1e-15, 1e-9, 3e-4, 0.1, 0.5, 0.75, 0.9, 1.0 - 1e-12])
def test_one_bit_point_gives_the_channel_one_bit(x):
    # rho is within a spacing of floats near 1 of -sqrt(1 - x), even where x
    # is far below that spacing; where rho <= -0.5 it is rounded toward 0.
    # So the capacity term is never below one bit by more than rounding.
    n = x / 3.0
    rho = skewnormal._one_bit_rho(1.0, n)
    exact = -mpmath.sqrt(1 - 3 * mpmath.mpf(n))
    assert abs(rho - exact) <= 2.3e-16
    assert rho >= exact or rho > -0.5
    cap = 0.5 * math.log2(1.0 + power_split(1.0, 1.0, rho)[1] / n)
    assert cap >= 1.0 - 1e-15


@pytest.mark.parametrize("P, n", [(1.0, 1.0 / 3.0), (0.5, 0.2), (1.0, 1e-20)])
def test_one_bit_point_missing_without_room_or_when_it_rounds_to_minus_one(P, n):
    # 3n >= P leaves no rho with a one-bit capacity; at 3n/P = 3e-20 the
    # point rounds to -1, where the margin is -1
    assert skewnormal._one_bit_rho(P, n) is None


def test_mmse_coord_searches_where_the_one_bit_point_rounds_to_minus_one(monkeypatch):
    searches = []
    real = numerics.minimize_1d

    def recording(*args, **kwargs):
        searches.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(skewnormal, "minimize_1d", recording)
    params = validate_params(1.0, 1e-200)
    _, rho_star = mmse_coord(0.5, params)
    assert searches == [(-1.0, 1.0)]
    assert ic_feasible(coord_ic_margin(CoordPolicy(0.5, rho_star), params))


@given(log_q=st.floats(-1.3, 0.3), log_ratio=st.floats(-4.0, -0.6), u=st.floats(0.0, 1.0))
@settings(max_examples=5, deadline=None)
def test_coord_is_feasible_at_every_power_above_three_times_the_noise(log_q, log_ratio, u):
    # from P = 3N on, rho = -sqrt(1 - 3N/P) carries the sign bit
    Q = 10.0**log_q
    params = validate_params(Q, Q * 10.0**log_ratio)
    P = min(3.0 * params.N + u * (Q - 3.0 * params.N), Q)
    assume(P > 3.0 * params.N)
    _, rho_star = mmse_coord(P, params)
    assert ic_feasible(coord_ic_margin(CoordPolicy(P, rho_star), params))
    assert coord_min_power(params) <= 3.0 * params.N


@pytest.mark.parametrize("P", [0.03, 0.05, 0.07, 0.09])
def test_mmse_coord_returns_the_feasibility_edge(params, P):
    _, rho_star = mmse_coord(P, params)
    margin = coord_ic_margin(CoordPolicy(P, rho_star), params)
    assert ic_feasible(margin)
    left = coord_ic_margin(CoordPolicy(P, rho_star - 1e-6), params)
    assert not ic_feasible(left)


def _peak_route_rho(P: float, params):
    """rho* by the route without the early stop, or None where it finds no feasible rho.

    The bounded peak search, then the edge root on [-1, rho_peak], stepped
    right as mmse_coord steps it.
    """
    margin = skewnormal._margin_in_rho(P, params)
    rho_peak, peak = skewnormal._peak_margin(margin)
    if not ic_feasible(peak):
        return None
    rho = numerics.find_root(margin, -1.0, rho_peak, EDGE_RHO_TOL) if peak > 0.0 else rho_peak
    step = 1e-12
    while not ic_feasible(margin(rho)):
        rho = min(rho + step, rho_peak)
        step *= 2.0
    return rho


def assert_matches_peak_route(P: float, params) -> None:
    expected = _peak_route_rho(P, params)
    if expected is None:
        with pytest.raises(EmptyFeasibleSet):
            mmse_coord(P, params)
        return
    _, rho_star = mmse_coord(P, params)
    assert abs(rho_star - expected) <= 2.0 * EDGE_RHO_TOL


@pytest.mark.parametrize("Q, N, steps", [(0.1, 0.01, 25), (1.0, 1e-4, 13)])
def test_mmse_coord_matches_the_peak_route_on_a_grid(Q, N, steps):
    p = validate_params(Q, N)
    for P in np.linspace(0.0, Q, steps):
        assert_matches_peak_route(float(P), p)


@given(log_q=st.floats(-1.3, 0.3), log_ratio=st.floats(-4.0, -0.5), u=st.floats(0.0, 1.0))
@settings(max_examples=5, deadline=None)
def test_mmse_coord_matches_the_peak_route_on_drawn_params(log_q, log_ratio, u):
    Q = 10.0**log_q
    assert_matches_peak_route(u * Q, validate_params(Q, Q * 10.0**log_ratio))


def test_mmse_coord_evaluates_each_margin_once(params, monkeypatch):
    rhos, solver_rhos, searches = [], set(), []
    real_margin = skewnormal.coord_ic_margin

    def counted(policy, params):
        rhos.append(policy.rho)
        return real_margin(policy, params)

    def recording(name):
        real = getattr(numerics, name)

        def solve(f, lo, hi, tol, **kwargs):
            if name == "minimize_1d":
                searches.append(lo)

            def g(x):
                solver_rhos.add(x)
                return f(x)

            return real(g, lo, hi, tol, **kwargs)

        return solve

    monkeypatch.setattr(skewnormal, "coord_ic_margin", counted)
    monkeypatch.setattr(skewnormal, "find_root", recording("find_root"))
    monkeypatch.setattr(skewnormal, "minimize_1d", recording("minimize_1d"))
    # P = 0.023 < 3N: no rho gives a one-bit capacity, so the bounded search
    # runs; its first point is infeasible and it runs on (16 margins; with
    # no memo it made 24). P = 0.05 > 3N: one margin at the one-bit point
    # -sqrt(1 - 3N/P) ends the root-find's bracket, and no search runs (9
    # margins; the search from its first point made 10, and 21 with no memo).
    for P, budget, searched in [(0.023, 22, True), (0.05, 10, False)]:
        rhos.clear()
        solver_rhos.clear()
        searches.clear()
        mmse_coord(P, params)
        assert len(rhos) == len(set(rhos)) <= budget
        assert bool(searches) is searched
        if not searched:
            assert rhos[0] == pytest.approx(-math.sqrt(1.0 - 3.0 * params.N / P), abs=1e-15)
        # every margin is one the solvers asked for, the one-bit point
        # included, since it is the root-find's right end, which is read
        # again from the memo
        assert set(rhos) == solver_rhos


@pytest.mark.parametrize(
    "Q, N, P", [(0.1, 0.01, 0.023), (0.1, 0.01, 0.05), (1.0, 1e-4, 1e-3)]
)
def test_mmse_coord_edge_stops_inside_the_feasibility_slack(Q, N, P, monkeypatch):
    # the edge root-find ends at the first margin within 1e-12 of 0 that it
    # meets: that rho is feasible, and a further Brent step would only move
    # rho* by rounding, so how many margins a call makes would hang on the
    # last bit of Psi
    values = []
    real = numerics.find_root

    def recording(f, lo, hi, tol):
        def g(x):
            values.append(f(x))
            return values[-1]

        return real(g, lo, hi, tol)

    monkeypatch.setattr(skewnormal, "find_root", recording)
    mmse_coord(P, validate_params(Q, N))
    inside = [abs(v) <= 1e-12 for v in values]
    assert inside[-1] and not any(inside[:-1])


# ------------------------------------------------------ coord minimum power


@pytest.mark.parametrize(
    "Q, N, expected", [(0.1, 0.01, 0.0227508), (1.0, 1e-4, 2.9714e-4)]
)
def test_coord_min_power_below_two_point_minimum(Q, N, expected):
    p = validate_params(Q, N)
    pmin = coord_min_power(p)
    assert pmin == pytest.approx(expected, rel=1e-5)
    # the hybrid scheme operates below the two-point family's smallest power
    assert 0.0 < pmin < two_point_min_power(p)
    with pytest.raises(EmptyFeasibleSet):
        mmse_coord(0.999 * pmin, p)
    value, _ = mmse_coord(1.001 * pmin, p)
    assert math.isfinite(value) and value > 0.0


def test_coord_min_power_scales_with_the_variances():
    base = coord_min_power(validate_params(0.1, 0.01))
    for c in (1e-9, 1e9):
        scaled = coord_min_power(validate_params(0.1 * c, 0.01 * c))
        assert scaled / c == pytest.approx(base, rel=1e-10)


def test_coord_min_power_none_when_noise_dominates():
    with pytest.raises(EmptyFeasibleSet):
        coord_min_power(validate_params(0.1, 0.1))


# ------------------------------------------------- grid-scan coord oracle


def grid_oracle(P: float, params, grid: int = 201):
    """The grid-scan coord optimizer: minimize_1d over rho, +inf where infeasible.

    Returns ((S, rho*) or None when infeasible, feasibility on the grid). The
    golden-section tolerance is 1e-12: near rho = -1 at high SNR, T is small
    enough that a 1e-9 error in rho would move S by more than 1e-7 relative.
    """
    feasible = []

    def objective(rho: float) -> float:
        cp = CoordPolicy(P, rho)
        ok = ic_feasible(coord_ic_margin(cp, params))
        feasible.append(ok)
        return coord_mmse_at_rho(cp, params) if ok else math.inf

    try:
        rho, value = minimize_1d(objective, -1.0, 1.0, grid=grid, tol=1e-12)
    except EmptyFeasibleSet:
        return None, np.array(feasible[:grid])
    return (value, rho), np.array(feasible[:grid])


def assert_one_interval(mask: np.ndarray) -> None:
    idx = np.flatnonzero(mask)
    assert idx.size == 0 or idx[-1] - idx[0] + 1 == idx.size


def assert_matches_oracle(P: float, params) -> None:
    oracle, feasible = grid_oracle(P, params)
    # the edge root-find relies on the feasible correlations forming one interval
    assert_one_interval(feasible)
    if oracle is None:
        with pytest.raises(EmptyFeasibleSet):
            mmse_coord(P, params)
        return
    value, _ = mmse_coord(P, params)
    assert value == pytest.approx(oracle[0], rel=1e-7)


@pytest.mark.parametrize("P", [0.01, 0.03, 0.06, 0.1])
def test_mmse_coord_matches_grid_oracle_at_study_point(params, P):
    assert_matches_oracle(P, params)


@given(
    log_q=st.floats(-1.3, 0.3),
    log_ratio=st.floats(-3.0, -0.5),
    below=st.booleans(),
    u=st.floats(0.0, 1.0),
)
@settings(max_examples=5, deadline=None)
def test_mmse_coord_matches_grid_oracle_on_drawn_params(log_q, log_ratio, below, u):
    Q = 10.0**log_q
    p = validate_params(Q, Q * 10.0**log_ratio)
    pmin = coord_min_power(p)
    # keep clear of the minimum power, where the feasible interval is narrower
    # than the oracle's grid spacing
    lo, hi = (0.1 * pmin, 0.8 * pmin) if below else (1.25 * pmin, 0.98 * Q)
    assert_matches_oracle(lo + u * (hi - lo), p)


@pytest.mark.parametrize("Q, N, P", [(0.1, 0.01, 0.03), (0.1, 0.01, 0.09), (1.0, 1e-4, 0.3)])
def test_coord_mmse_increases_with_interim_variance(Q, N, P):
    # T = P + Q + 2 rho sqrt(PQ) increases with rho
    rhos = np.linspace(-0.999, 1.0, 41)
    params = validate_params(Q, N)
    vals = [coord_mmse_at_rho(CoordPolicy(P, float(r)), params) for r in rhos]
    assert np.all(np.diff(vals) > 0.0)
