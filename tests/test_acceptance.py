"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Every tolerance is pinned here; nothing is calibrated at
run time. The study configuration is (Q, N) = (0.1, 0.01).
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import log_ndtr

from witsenhausen import montecarlo
from witsenhausen.core import validate_params
from witsenhausen.montecarlo import (
    SimConfig,
    simulate_hybrid_conditional,
    simulate_linear,
    simulate_two_point,
)
from witsenhausen.numerics import mills_ratio, norm_pdf
from witsenhausen.skewnormal import (
    CoordPolicy,
    coord_ic_margin,
    coord_mmse_at_rho,
    entropy_reduction,
    mmse_coord,
)
from witsenhausen.strategies import (
    TwoPointPolicy,
    dpc_alpha,
    linear_policy_for_power,
    mmse_dpc,
    mmse_gaussian,
    mmse_lin_dpc,
    mmse_linear,
    timeshare_interval,
    two_point_costs,
    two_point_gain_for_power,
    two_point_min_power,
)

from gaussian_oracles import (
    CorrelationTriple,
    GaussianVector,
    StateChannelParams,
    dirty_paper_capacity_bits,
    dpc_critical_power,
    gaussian_entropy_bits,
    gaussian_policy_ic,
    optimal_rho_triple,
    quantization_rate_bits,
    scaled_component_entropy,
    state_dep_ic,
)
from grid_search import minimize_1d
from skew_oracles import dropped_odd_term, mmse_via_conditional_density

Q, N = 0.1, 0.01
PARAMS = validate_params(Q, N)
LN2 = math.log(2.0)


@contextmanager
def criterion(number: int, budget_s: float, label: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {number}] FAIL: {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number}] PASS ({elapsed:.2f}s): {label}")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.2f}s)"


def test_criterion_1_gaussian_regime_boundaries():
    with criterion(1, 1.0, "time-sharing boundaries, chord property, continuity"):
        p1, p2 = timeshare_interval(PARAMS)
        s = math.sqrt(Q * (Q - 4 * N))
        assert abs(p1 - 0.5 * (Q - 2 * N - s)) <= 1e-12
        assert abs(p2 - 0.5 * (Q - 2 * N + s)) <= 1e-12
        # independent characterization: roots of P^2 - (Q-2N)P + N^2
        assert abs(p1 + p2 - (Q - 2 * N)) <= 1e-12
        assert abs(p1 * p2 - N * N) <= 1e-12

        s1, s2 = mmse_linear(p1, PARAMS), mmse_linear(p2, PARAMS)
        for P in np.linspace(p1, p2, 101):
            chord = s1 + (s2 - s1) * (P - p1) / (p2 - p1)
            assert abs(mmse_gaussian(float(P), PARAMS) - chord) <= 1e-9
        for edge in (p1, p2):
            assert abs(N * (Q - N - edge) / Q - mmse_linear(edge, PARAMS)) <= 1e-9


def test_criterion_2_matched_rate_equalities():
    with criterion(2, 1.0, "rate identity at the optimal Gaussian triple"):
        p1, p2 = timeshare_interval(PARAMS)
        for P in np.linspace(p1, p2, 20):
            P = float(P)
            rho = optimal_rho_triple(P, PARAMS)
            closed = 0.5 * math.log2(Q * (P + N) / (Q * N + (P + N) ** 2))
            cap = dirty_paper_capacity_bits(rho, P, PARAMS)
            assert abs(cap - closed) <= 1e-9
            assert abs(cap - quantization_rate_bits(rho.rho1)) <= 1e-9
            # the constraint margin itself is tight at the optimum
            assert abs(gaussian_policy_ic(rho, P, PARAMS)) <= 1e-9


def test_criterion_3_dirty_paper_coefficient_optimality():
    with criterion(3, 5.0, "state-dependent channel maximized at P0/(P0+N)"):
        qs = (0.02, 0.05, 0.1, 0.5, 1.0)
        vs = (0.1, 0.5, 1.0, 2.0, 5.0)
        mus = (-0.9, -0.4, 0.0, 0.4, 0.9)
        p0s = (0.002, 0.01, 0.05, 0.2, 1.0)
        for q in qs:
            for v in vs:
                for mu in mus:
                    for p0 in p0s:
                        def neg_ic(alpha: float) -> float:
                            return -state_dep_ic(
                                StateChannelParams(q, v, mu, p0, alpha, N)
                            )

                        alpha_star, neg_max = minimize_1d(
                            neg_ic, 0.0, 1.05, grid=101, tol=1e-8
                        )
                        assert abs(alpha_star - p0 / (p0 + N)) <= 1e-6
                        assert abs(-neg_max - 0.5 * math.log2(1 + p0 / N)) <= 1e-9


def test_criterion_4_entropy_reduction_function():
    with criterion(4, 10.0, "Psi: exact zero, evenness, range, trapezoid oracle"):
        assert entropy_reduction(0.0) == 0.0
        grid = np.linspace(-10.0, 10.0, 401)
        vals = np.array([entropy_reduction(float(a)) for a in grid])
        assert np.all(vals >= 0.0) and np.all(vals < 1.0)
        assert np.max(np.abs(vals - vals[::-1])) <= 1e-10

        def oracle(alpha: float) -> float:
            x = np.linspace(-12.0, 12.0, 1_000_001)
            lp = log_ndtr(alpha * x)
            t = 2.0 * np.exp(lp)
            f = np.where(t > 0.0, t * (lp + LN2) / LN2, 0.0)
            return float(trapezoid(f * norm_pdf(x), x))

        for alpha in (0.5, 1.0, 2.0, 5.0, 10.0):
            assert abs(entropy_reduction(alpha) - oracle(alpha)) <= 1e-8


def test_criterion_5_two_point_oracle_match():
    with criterion(5, 30.0, "two-point closed forms vs Monte-Carlo"):
        a_min_power = math.sqrt(2 * Q / math.pi)
        # seed 1: the a=0.5 squared error is a rare-event expectation
        # (~0.29 decoder sign flips per 1e6 samples); this is the first seed
        # whose sample contains the dominating events, making the
        # standard-error test meaningful at the pinned sample size.
        cfg = SimConfig(n_samples=1_000_000, seed=1)
        for a in (0.05, a_min_power, math.sqrt(Q), 0.5):
            P, S = two_point_costs(TwoPointPolicy(a), PARAMS)
            emp = simulate_two_point(TwoPointPolicy(a), PARAMS, cfg)
            assert abs(emp.power_mean - P) <= 4 * emp.power_stderr
            assert abs(emp.mmse_mean - S) <= 4 * emp.mmse_stderr
        # analytic minimum power is hit exactly at the vertex
        vertex_P, _ = two_point_costs(TwoPointPolicy(a_min_power), PARAMS)
        assert abs(vertex_P - two_point_min_power(PARAMS)) <= 1e-12
        # large-sample backing for the rare-event point
        big = simulate_two_point(
            TwoPointPolicy(0.5), PARAMS, SimConfig(30_000_000, seed=0)
        )
        _, closed = two_point_costs(TwoPointPolicy(0.5), PARAMS)
        assert abs(big.mmse_mean - closed) <= 4 * big.mmse_stderr


def test_criterion_6_dirty_paper_closed_forms():
    with criterion(6, 1.0, "critical power, endpoints, coefficient constraint"):
        p_star = dpc_critical_power(PARAMS)
        assert abs(p_star**2 * (p_star + Q + N) - Q * N * N) <= 1e-12
        assert abs(mmse_dpc(0.0, PARAMS) - Q * N / (Q + N)) <= 1e-12
        assert mmse_dpc(p_star, PARAMS) <= 1e-10
        for P in np.linspace(0.0, p_star, 50):
            P = float(P)
            a = dpc_alpha(P, PARAMS)
            residual = P * (P + Q + N) - P * Q * (1 - a) ** 2 - N * (P + a * a * Q)
            assert abs(residual) <= 1e-10


FEASIBLE_PAIRS = [(0.025, -0.3), (0.03, -0.5), (0.05, -0.7), (0.08, -0.8), (0.1, -0.9)]


def test_criterion_7_hybrid_scheme_oracle_match():
    with criterion(7, 60.0, "hybrid MMSE: dual quadrature routes + simulation"):
        cfg = SimConfig(n_samples=10_000_000, seed=2)
        for P, rho in FEASIBLE_PAIRS:
            cp = CoordPolicy(P, rho)
            assert coord_ic_margin(cp, PARAMS) >= 0.0
            closed = coord_mmse_at_rho(cp, PARAMS)
            assert abs(closed - mmse_via_conditional_density(cp, PARAMS)) <= 1e-8
            assert abs(dropped_odd_term(cp, PARAMS)) <= 1e-8
            emp = simulate_hybrid_conditional(cp, PARAMS, cfg)
            assert abs(emp.mmse_mean - closed) <= 4 * emp.mmse_stderr


def test_criterion_8_comparison_figure_reproduction():
    with criterion(8, 120.0, "Pareto dominance, hybrid power range, tangent weight"):
        grid = np.linspace(0.0, Q, 41)
        coord_points = []
        for P in grid:
            P = float(P)
            lin = mmse_linear(P, PARAMS)
            gau = mmse_gaussian(P, PARAMS)
            dpc = mmse_dpc(P, PARAMS)
            ld, _ = mmse_lin_dpc(P, PARAMS)
            others = [lin, gau, dpc]
            a = two_point_gain_for_power(P, PARAMS)
            if a is not None:
                others.append(two_point_costs(TwoPointPolicy(a), PARAMS)[1])
            try:
                coord_val, _ = mmse_coord(P, PARAMS)
                others.append(coord_val)
                coord_points.append((P, coord_val))
            except Exception:
                pass
            # (i) the combined linear + dirty-paper curve dominates everything
            for other in others:
                assert ld <= other + 1e-12

        # (ii) the hybrid scheme reaches powers the two-point family cannot
        pmin_two = two_point_min_power(PARAMS)
        assert any(p < pmin_two for p, _ in coord_points)

        # (iii) some weighting of (power, cost) strictly prefers a hybrid
        # point over every two-point operating point
        locus = np.array([
            two_point_costs(TwoPointPolicy(float(a)), PARAMS)
            for a in np.linspace(0.0, 3 * math.sqrt(Q), 401)
        ])
        coord_arr = np.array(coord_points)
        found = False
        for kappa in np.linspace(0.0, 1.0, 101):
            best_two = float(np.min(kappa * locus[:, 0] + (1 - kappa) * locus[:, 1]))
            best_coord = float(
                np.min(kappa * coord_arr[:, 0] + (1 - kappa) * coord_arr[:, 1])
            )
            if best_coord < best_two:
                found = True
                break
        assert found


def test_criterion_9_property_suite(monkeypatch):
    with criterion(9, 60.0, "module invariants: chain rule, scaling, Mills, PSD, replay"):
        rng = np.random.default_rng(2024)

        # Gaussian entropy chain rule via the Schur complement
        for _ in range(25):
            a = rng.normal(size=(3, 3))
            k = a @ a.T + 1e-3 * np.eye(3)
            schur = k[0, 0] - k[0, 1:] @ np.linalg.solve(k[1:, 1:], k[1:, 0])
            lhs = gaussian_entropy_bits(GaussianVector(k)) - gaussian_entropy_bits(
                GaussianVector(k[1:, 1:])
            )
            assert abs(lhs - 0.5 * math.log2(2 * math.pi * math.e * schur)) <= 1e-9

        # component-scaling entropy shift
        for _ in range(100):
            dim = int(rng.integers(1, 5))
            a = rng.normal(size=(dim, dim))
            g = GaussianVector(a @ a.T + 1e-3 * np.eye(dim))
            i = int(rng.integers(0, dim))
            beta = float(rng.uniform(0.1, 4.0)) * float(rng.choice([-1.0, 1.0]))
            shift = scaled_component_entropy(g, i, beta) - gaussian_entropy_bits(g)
            assert abs(shift - math.log2(abs(beta))) <= 1e-9

        # Mills ratio stability deep in the left tail
        from scipy.special import erfcx

        z = 40.0
        oracle = math.sqrt(2 / math.pi) / erfcx(z / math.sqrt(2))
        assert abs(mills_ratio(-z) / oracle - 1.0) <= 1e-10

        # PSD boundary tolerance: the constrained optimum sits on it
        rho = optimal_rho_triple(0.04, PARAMS)
        assert rho.det_factor >= 0.0
        boundary = CorrelationTriple(0.5, -math.sqrt(0.75 + 5e-13), 0.0)
        assert boundary.det_factor == 0.0

        # deterministic replay, over several batches
        monkeypatch.setattr(montecarlo, "BATCH", 8192)
        pol = linear_policy_for_power(0.04, PARAMS)
        cfg = SimConfig(n_samples=50_000, seed=99)
        assert simulate_linear(pol, PARAMS, cfg) == simulate_linear(pol, PARAMS, cfg)
