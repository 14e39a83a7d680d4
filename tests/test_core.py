import math
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witsenhausen.core import EmpiricalCost, power_split, validate_params

from gaussian_oracles import CorrelationTriple


def test_validate_params_study_point():
    p = validate_params(0.1, 0.01)
    assert p.Q == 0.1 and p.N == 0.01


def test_validate_params_unit():
    p = validate_params(1.0, 1.0)
    assert p.Q == 1.0 and p.N == 1.0


@pytest.mark.parametrize(
    "Q,N",
    [(0.0, 0.01), (0.1, 0.0), (-1.0, 1.0), (1.0, -0.1), (math.inf, 0.01), (0.1, math.inf),
     (math.nan, 0.01), (0.1, math.nan)],
)
def test_validate_params_rejects_nonpositive(Q, N):
    with pytest.raises(ValueError, match="positive and finite"):
        validate_params(Q, N)


def test_power_split_interim_variance():
    t = power_split(0.04, 0.1, 0.5)[2]  # rho = -0.5
    assert t == pytest.approx(0.04 + 0.1 - math.sqrt(0.004), rel=1e-14)
    assert t == pytest.approx(
        (math.sqrt(0.1) - 0.5 * math.sqrt(0.04)) ** 2 + 0.04 * 0.75, rel=1e-12
    )
    # P one rounding step below Q at u = 0 (rho = -1): t = (sqrt(Q) - sqrt(P))^2 is
    # tiny but not 0, which P + Q + 2 rho sqrt(PQ) rounds to
    Q = 0.1
    P = Q * (1.0 - 2.0**-53)
    with localcontext() as ctx:
        ctx.prec = 50
        exact = float((Decimal(Q).sqrt() - Decimal(P).sqrt()) ** 2)
    assert power_split(P, Q, 0.0)[2] == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("P, Q", [(0.04, 0.1), (0.1, 0.1), (3.0, 7.0), (1e-8, 1.0)])
def test_power_split_matches_the_formulas_in_rho(P, Q):
    # at u = 1 + rho it gives s = sqrt(Q) + rho sqrt(P), p_res = P(1 - rho^2)
    # and t = s^2 + p_res to a few ulps, with no cancellation near rho = -1;
    # the grid's rho are multiples of 1/16, so u = 1 + rho is exact
    for rho in np.linspace(-1.0, 1.0, 33).tolist():
        got = power_split(P, Q, 1.0 + rho)
        with mpmath.workdps(40):
            s = mpmath.sqrt(Q) + rho * mpmath.sqrt(P)
            p_res = P * (1 - mpmath.mpf(rho) ** 2)
            exact = (s, p_res, s * s + p_res)
            for value, want in zip(got, exact):
                assert abs(value - want) <= 4 * math.ulp(float(want)), (rho, got)
    # the ends are linear policies: no residual power, and t = s^2
    for u in (0.0, 2.0):
        s, p_res, t = power_split(P, Q, u)
        assert p_res == 0.0 and t == s * s
    if P == Q:
        assert power_split(P, Q, 0.0) == (0.0, 0.0, 0.0)


def test_power_split_keeps_the_interim_state_positive_near_rho_minus_one():
    # where the state vanishes at rho = -1 (P = Q), u = 1 + rho still holds
    # the split down to u = 1e-300, which a float rho cannot tell from -1
    for k in range(1, 301):
        u = 10.0**-k
        s, p_res, t = power_split(0.1, 0.1, u)
        assert s == u * math.sqrt(0.1) and t >= p_res > 0.0


class TestCorrelationTriple:
    def test_pure_linear_boundary_point(self):
        t = CorrelationTriple(0.0, -1.0, 0.0)
        assert t.det_factor == 0.0

    def test_rejects_component_outside_unit_interval(self):
        with pytest.raises(ValueError):
            CorrelationTriple(1.2, 0.0, 0.0)

    def test_rejects_clearly_infeasible(self):
        # rho2^2 alone exceeds 1 - rho1^2
        with pytest.raises(ValueError):
            CorrelationTriple(0.5, -0.95, 0.0)

    def test_clamps_tiny_negative_det_factor(self):
        # crafted so the raw determinant factor sits a hair below zero
        rho2 = -math.sqrt(0.75 + 5e-13)
        t = CorrelationTriple(0.5, rho2, 0.0)
        assert t._raw_det_factor() < 0.0
        assert t.det_factor == 0.0

    @given(
        r1=st.floats(-1, 1),
        r2=st.floats(-1, 1),
        r3=st.floats(-1, 1),
        Q=st.floats(1e-3, 10.0),
        P=st.floats(0.0, 10.0),
        V=st.floats(1e-3, 10.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_accepted_triples_give_psd_covariance(self, r1, r2, r3, Q, P, V):
        try:
            t = CorrelationTriple(r1, r2, r3)
        except ValueError:
            return
        k = t.covariance(Q, P, V)
        scale = max(1.0, float(np.max(np.abs(k))) ** 3)
        assert np.linalg.det(k) >= -1e-10 * scale
        assert t.det_factor >= 0.0


def test_empirical_cost_validation():
    with pytest.raises(ValueError):
        EmpiricalCost(0.1, -1.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        EmpiricalCost(0.1, 0.0, 0.1, -1.0)
