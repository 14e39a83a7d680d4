import math

import numpy as np
import pytest

from witsenhausen.core import validate_params
from witsenhausen.skewnormal import CoordPolicy, ic_feasible
from witsenhausen.strategies import mmse_linear, timeshare_interval

from gaussian_oracles import (
    CorrelationTriple,
    DegenerateChannel,
    GaussianVector,
    InfeasibleRho,
    NegativeEffectiveVariance,
    StateChannelParams,
    ZeroScale,
    dirty_paper_capacity_bits,
    gaussian_entropy_bits,
    gaussian_policy_ic,
    gaussian_policy_mmse,
    optimal_rho2,
    optimal_rho_triple,
    quantization_rate_bits,
    scaled_component_entropy,
    state_dep_ic,
)
from skew_oracles import cov_state_precoder

LOG2_2PIE = math.log2(2.0 * math.pi * math.e)


def random_psd(rng, k):
    a = rng.normal(size=(k, k))
    return a @ a.T + 1e-3 * np.eye(k)


# ---------------------------------------------------------------- entropies


def test_entropy_standard_normal():
    g = GaussianVector(np.array([[1.0]]))
    assert gaussian_entropy_bits(g) == pytest.approx(0.5 * LOG2_2PIE, abs=1e-12)
    assert gaussian_entropy_bits(g) == pytest.approx(2.0471, abs=5e-5)


def test_entropy_additive_for_independent_pair():
    g = GaussianVector(np.eye(2))
    assert gaussian_entropy_bits(g) == pytest.approx(LOG2_2PIE, abs=1e-12)


def test_entropy_of_state_precoder_pair():
    # with zero input correlation the pair determinant collapses to P*Q
    cov = cov_state_precoder(CoordPolicy(0.04, 0.0), validate_params(0.1, 0.01))
    g = GaussianVector(cov)
    expected = 0.5 * math.log2((2 * math.pi * math.e) ** 2 * 0.004)
    assert gaussian_entropy_bits(g) == pytest.approx(expected, abs=1e-12)


def test_entropy_singular_covariance_sentinel():
    g = GaussianVector(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert gaussian_entropy_bits(g) == -math.inf


def test_entropy_chain_rule_via_schur_complement():
    rng = np.random.default_rng(42)
    for _ in range(50):
        k = random_psd(rng, 3)
        g_full = GaussianVector(k)
        g_marg = GaussianVector(k[1:, 1:])
        schur = k[0, 0] - k[0, 1:] @ np.linalg.solve(k[1:, 1:], k[1:, 0])
        cond = 0.5 * math.log2(2 * math.pi * math.e * schur)
        assert gaussian_entropy_bits(g_full) - gaussian_entropy_bits(g_marg) == pytest.approx(
            cond, abs=1e-9
        )


def test_gaussian_vector_validation():
    with pytest.raises(ValueError):
        GaussianVector(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        GaussianVector(np.array([[1.0, 2.0], [2.0, 1.0]]))  # negative eigenvalue
    with pytest.raises(ValueError):
        GaussianVector(np.eye(5))  # too large


def test_gaussian_vector_clamps_rounding_eigenvalues():
    eps = 5e-13
    g = GaussianVector(np.array([[1.0, 1.0 + eps], [1.0 + eps, 1.0]]))
    assert np.linalg.eigvalsh(g.cov).min() >= 0.0


# --------------------------------------------------- policy IC and MMSE


def test_policy_ic_pure_linear_is_exactly_zero(params):
    t = CorrelationTriple(0.0, -1.0, 0.0)
    for P in (0.0, 0.01, 0.04, 0.1, 3.7):
        assert gaussian_policy_ic(t, P, params) == 0.0
    assert gaussian_policy_ic(t, 1.0, validate_params(1.0, 1.0)) == 0.0


def test_policy_ic_uncorrelated_input_at_matched_power():
    t = CorrelationTriple(0.0, 0.0, 0.0)
    assert gaussian_policy_ic(t, 1.0, validate_params(2.0, 1.0)) == pytest.approx(0.5)


def test_policy_ic_tight_at_the_optimal_triple(params):
    # the constraint rearranges to equality at the closed-form optimum, and
    # both sides of the capacity identity take the same value
    p1, p2 = timeshare_interval(params)
    Q, N = params.Q, params.N
    for P in np.linspace(p1, p2, 20):
        rho = optimal_rho_triple(float(P), params)
        assert abs(gaussian_policy_ic(rho, float(P), params)) <= 1e-9
        cap = dirty_paper_capacity_bits(rho, float(P), params)
        closed = 0.5 * math.log2(Q * (P + N) / (Q * N + (P + N) ** 2))
        assert cap == pytest.approx(closed, abs=1e-9)
        assert cap == pytest.approx(quantization_rate_bits(rho.rho1), abs=1e-9)


def test_policy_ic_value_at_study_point(params):
    # 0.5 log2(Q(P+N)/(QN+(P+N)^2)) ~ 0.2573 bits of matched rate at P = 0.04
    rho = optimal_rho_triple(0.04, params)
    assert dirty_paper_capacity_bits(rho, 0.04, params) == pytest.approx(0.2573, abs=2e-4)


def test_policy_mmse_collapses_to_linear(params):
    t = CorrelationTriple(0.0, -1.0, 0.0)
    for P in np.linspace(0.0, params.Q, 21):
        assert gaussian_policy_mmse(t, float(P), params) == pytest.approx(
            mmse_linear(float(P), params), abs=1e-12
        )


def test_policy_mmse_uncorrelated_at_full_power():
    # direct substitution at (0, 0, 0), P = Q: effective variance Q + P = 2Q
    p = validate_params(0.3, 0.07)
    t = CorrelationTriple(0.0, 0.0, 0.0)
    Q, N = p.Q, p.N
    assert gaussian_policy_mmse(t, Q, p) == pytest.approx(N * 2 * Q / (N + 2 * Q), rel=1e-14)


def test_policy_mmse_at_optimal_triple(params):
    rho = optimal_rho_triple(0.04, params)
    expected = params.N * (params.Q - params.N - 0.04) / params.Q
    assert gaussian_policy_mmse(rho, 0.04, params) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.005, abs=1e-15)


def test_policy_mmse_guards_negative_effective_variance(params):
    # unreachable through the validating constructor; forge the state to
    # exercise the guard
    t = CorrelationTriple(0.0, -1.0, 0.0)
    object.__setattr__(t, "rho2", -1.5)
    with pytest.raises(NegativeEffectiveVariance):
        gaussian_policy_mmse(t, 4.0 * params.Q, params)


# ------------------------------------------------------------ optimal rho2


def test_rho2_uncorrelated():
    assert optimal_rho2(0.0, 0.0, 0.5, 0.01) == -1.0


def test_rho2_feasibility_boundary():
    # the radicand vanishes analytically; the square root turns its rounding
    # noise (~1e-16) into ~1e-8, which bounds the achievable accuracy here
    P, N = 0.04, 0.01
    rho1 = math.sqrt(P / (P + N))
    assert optimal_rho2(rho1, 0.0, P, N) == pytest.approx(0.0, abs=1e-7)


def test_rho2_matches_optimal_triple(params):
    Q, N, P = params.Q, params.N, 0.04
    rho1 = math.sqrt((P * Q - (P + N) ** 2) / (Q * (P + N)))
    got = optimal_rho2(rho1, 0.0, P, N)
    assert got == pytest.approx(-(P + N) / math.sqrt(P * Q), abs=1e-12)
    assert got == pytest.approx(-0.7905694150420949, abs=1e-12)


def test_rho2_infeasible_raises():
    with pytest.raises(InfeasibleRho):
        optimal_rho2(0.99, 0.0, 1.0, 1.0)


# ----------------------------------------------------- optimal rho triple


def test_optimal_triple_study_point(params):
    t = optimal_rho_triple(0.04, params)
    assert t.rho1 == pytest.approx(math.sqrt(0.3), abs=1e-12)
    assert t.rho2 == pytest.approx(-0.7905694150420949, abs=1e-12)
    assert t.rho3 == 0.0


def test_optimal_triple_outside_regime_is_linear():
    p = validate_params(1.0, 1.0)
    for P in (0.0, 0.3, 1.0):
        assert optimal_rho_triple(P, p) == CorrelationTriple(0.0, -1.0, 0.0)


def test_optimal_triple_below_p1_is_linear(params):
    p1, _ = timeshare_interval(params)
    assert 0.0005 < p1
    assert optimal_rho_triple(0.0005, params) == CorrelationTriple(0.0, -1.0, 0.0)


def test_optimal_triple_continuous_at_regime_edges(params):
    p1, p2 = timeshare_interval(params)
    for edge in (p1, p2):
        t = optimal_rho_triple(edge, params)
        assert t.rho1 == pytest.approx(0.0, abs=1e-6)
        assert t.rho2 == pytest.approx(-1.0, abs=1e-9)


def test_optimal_triple_globally_minimizes_reduced_objective(params):
    # grid check over rho1^2 of the reduced one-dimensional objective
    # (rho2 eliminated by its closed form, rho3 optimized over {0, interior}),
    # confirming the closed-form cases before trusting them
    Q, N = params.Q, params.N
    for P in (0.004, 0.04, 0.077):
        best = math.inf
        for r1sq in np.linspace(0.0, P / (P + N) - 1e-12, 4001):
            rho1 = math.sqrt(r1sq)
            r3sq_cap = 1.0 - (N / P) * r1sq / (1.0 - r1sq)
            candidates = [0.0]
            interior = 1.0 - ((Q / P) * (1.0 - r1sq) + (N / P) * r1sq / (1.0 - r1sq))
            if 0.0 < interior <= r3sq_cap:
                candidates.append(interior)
            for r3sq in candidates:
                if r3sq < 0.0 or r3sq > min(1.0, r3sq_cap):
                    continue
                rho3 = math.sqrt(r3sq)
                try:
                    rho2 = optimal_rho2(rho1, rho3, P, N)
                except InfeasibleRho:
                    continue
                if rho2 < -1.0:
                    continue
                t = CorrelationTriple(rho1, rho2, rho3)
                best = min(best, gaussian_policy_mmse(t, P, params))
        closed = gaussian_policy_mmse(optimal_rho_triple(P, params), P, params)
        assert closed <= best + 1e-9


# --------------------------------------------------------- entropy scaling


def test_scaled_entropy_identity_and_doubling():
    g = GaussianVector(np.array([[1.0]]))
    assert scaled_component_entropy(g, 0, 1.0) == gaussian_entropy_bits(g)
    assert scaled_component_entropy(g, 0, 2.0) == pytest.approx(
        gaussian_entropy_bits(g) + 1.0, abs=1e-12
    )


def test_scaled_entropy_on_policy_covariance(params):
    t = optimal_rho_triple(0.04, params)
    cov = t.covariance(params.Q, 0.04, V=0.7)
    g = GaussianVector(cov)
    shifted = scaled_component_entropy(g, 1, -3.0)
    assert shifted - gaussian_entropy_bits(g) == pytest.approx(math.log2(3.0), abs=1e-12)


def test_scaled_entropy_random_shift_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = rng.integers(1, 5)
        g = GaussianVector(random_psd(rng, int(k)))
        i = int(rng.integers(0, k))
        beta = float(rng.uniform(-4.0, 4.0))
        if abs(beta) < 1e-3:
            beta = 0.5
        got = scaled_component_entropy(g, i, beta)
        assert got - gaussian_entropy_bits(g) == pytest.approx(
            math.log2(abs(beta)), abs=1e-9
        )


def test_scaled_entropy_zero_scale():
    g = GaussianVector(np.eye(2))
    with pytest.raises(ZeroScale):
        scaled_component_entropy(g, 0, 0.0)


# ------------------------------------------------- state-dependent channel


def test_state_channel_interference_free_at_costa_coefficient():
    rng = np.random.default_rng(3)
    for _ in range(25):
        q = float(rng.uniform(0.0, 2.0))
        v = float(rng.uniform(0.01, 2.0))
        mu = float(rng.uniform(-1.0, 1.0))
        P0 = float(rng.uniform(1e-3, 2.0))
        N = 0.01
        p = StateChannelParams(q, v, mu, P0, P0 / (P0 + N), N)
        assert state_dep_ic(p) == pytest.approx(0.5 * math.log2(1 + P0 / N), abs=1e-12)


def test_state_channel_no_state_any_coefficient():
    for alpha in (-0.3, 0.0, 0.5, 1.0):
        p = StateChannelParams(0.0, 1.0, 0.0, 0.04, alpha, 0.01)
        assert state_dep_ic(p) == pytest.approx(0.5 * math.log2(1 + 4.0), abs=1e-12)


def test_state_channel_uncoded_input():
    q, P0, N = 0.5, 0.04, 0.01
    p = StateChannelParams(q, 1.0, 0.0, P0, 0.0, N)
    expected = 0.5 * math.log2((q + P0 + N) / (N + q))
    assert state_dep_ic(p) == pytest.approx(expected, abs=1e-12)


def test_state_channel_alpha_suboptimal_is_worse():
    p_opt = StateChannelParams(0.5, 1.0, 0.2, 0.04, 0.04 / 0.05, 0.01)
    p_off = StateChannelParams(0.5, 1.0, 0.2, 0.04, 0.5, 0.01)
    assert state_dep_ic(p_off) < state_dep_ic(p_opt)


def test_state_channel_degenerate():
    with pytest.raises(DegenerateChannel):
        state_dep_ic(StateChannelParams(1.0, 1.0, 0.0, 0.0, 0.0, 0.0))


def test_state_channel_validation():
    with pytest.raises(ValueError):
        StateChannelParams(-1.0, 1.0, 0.0, 0.1, 0.5, 0.01)
    with pytest.raises(ValueError):
        StateChannelParams(1.0, 1.0, 1.5, 0.1, 0.5, 0.01)


# ---------------------------------------------------------------- ic_feasible


def test_ic_feasible_boundary_and_tolerance():
    assert ic_feasible(0.0)
    assert ic_feasible(-1e-13)
    assert not ic_feasible(-0.1)
    assert not ic_feasible(-math.inf)


def test_ic_feasible_at_optimal_triple(params):
    rho = optimal_rho_triple(0.04, params)
    assert ic_feasible(gaussian_policy_ic(rho, 0.04, params))
