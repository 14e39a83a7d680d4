import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witsenhausen.core import EmpiricalCost, validate_params

from gaussian_oracles import CorrelationTriple


def test_validate_params_study_point():
    p = validate_params(0.1, 0.01)
    assert p.Q == 0.1 and p.N == 0.01


def test_validate_params_unit():
    p = validate_params(1.0, 1.0)
    assert p.Q == 1.0 and p.N == 1.0


@pytest.mark.parametrize(
    "Q,N",
    [(0.0, 0.01), (0.1, 0.0), (-1.0, 1.0), (1.0, -0.1), (math.inf, 0.01), (0.1, math.inf)],
)
def test_validate_params_rejects_nonpositive(Q, N):
    with pytest.raises(ValueError, match="positive and finite"):
        validate_params(Q, N)


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
        EmpiricalCost(0.1, -1.0, 0.1, 0.0, 1000, 0)
    with pytest.raises(ValueError):
        EmpiricalCost(0.1, 0.0, 0.1, 0.0, 0, 0)
