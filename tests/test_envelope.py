"""The paper's headline claim against the time-sharing envelope of linear and two-point.

Time sharing between two schemes is achievable in this block-coding setup
(the gaussian family uses it), so the achievable trade-off is convex, and a
scheme gains something only where it lies strictly below the lower convex
envelope of the others. A point (P0, S0) lies strictly below the envelope of
the linear and two-point families iff some lambda >= 0 has

    S0 + lambda P0 < J(lambda) = min over both families of min [S(P) + lambda P],

Witsenhausen's total cost with lambda = k^2 (H. S. Witsenhausen, "A
counterexample in stochastic optimum control", SIAM J. Control 6(1), 1968).
The envelope at P0 is therefore max over lambda of J(lambda) - lambda P0.
"""
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from witsenhausen.core import EmptyFeasibleSet, validate_params
from witsenhausen.skewnormal import coord_min_power, mmse_coord
from witsenhausen.strategies import (
    TwoPointPolicy,
    mmse_linear,
    two_point_cost_grid,
    two_point_costs,
)

SEED_GRID = 201


def _refined_min(x, values, f) -> float:
    """min f from its values on the grid x: Brent on the cells around the best node."""
    i = int(np.argmin(values))
    lo, hi = x[max(i - 1, 0)], x[min(i + 1, len(x) - 1)]
    res = minimize_scalar(
        f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-6 * (hi - lo)}
    )
    return min(float(values[i]), float(res.fun))


class Envelope:
    """Lower convex envelope of the linear and two-point curves of one problem.

    Each family's minimum of S + lambda P is a bounded Brent search seeded by
    a grid: over P in [0, Q] for linear, whose cost is 0 from Q on, and over
    the magnitude a in [0, 2 sqrt(2Q/pi)] for two-point (priced by
    two_point_cost_grid). A larger magnitude spends more than Q, where linear
    costs lambda Q alone, so it never sets the minimum.
    """

    def __init__(self, params):
        self.params = params
        self.lin_p = np.linspace(0.0, params.Q, SEED_GRID)
        self.lin_s = np.array([mmse_linear(float(p), params) for p in self.lin_p])
        self.tp_a = np.linspace(0.0, 2.0 * math.sqrt(2.0 * params.Q / math.pi), SEED_GRID)
        self.tp_p, self.tp_s = two_point_cost_grid(self.tp_a, params)

    def total_cost(self, lam: float) -> float:
        """J(lambda), the smallest S + lambda P over both families."""
        params = self.params

        def linear(P):
            return mmse_linear(P, params) + lam * P

        def two_point(a):
            P, S = two_point_costs(TwoPointPolicy(a), params)
            return S + lam * P

        return min(
            _refined_min(self.lin_p, self.lin_s + lam * self.lin_p, linear),
            _refined_min(self.tp_a, self.tp_s + lam * self.tp_p, two_point),
        )

    def at(self, P0: float) -> float:
        """The envelope at P0 > 0: max over lambda of J(lambda) - lambda P0.

        J(lambda) - lambda P0 is concave in lambda, and below 0 <= J(0) for
        lambda > S(0)/P0, since J never exceeds the linear cost at P = 0.
        """
        lam_hi = self.lin_s[0] / P0
        res = minimize_scalar(
            lambda lam: P0 * lam - self.total_cost(lam),
            bounds=(0.0, lam_hi),
            method="bounded",
            options={"xatol": 1e-7 * lam_hi},
        )
        return -float(res.fun)


def test_envelope_lies_on_or_below_its_families_and_the_chord(params):
    # the chord joins linear's end points (0, QN/(Q+N)) and (Q, 0)
    env = Envelope(params)
    P = 0.02
    value = env.at(P)
    assert 0.0 < value <= mmse_linear(P, params) * (1.0 + 1e-9)
    assert value <= params.Q * params.N / (params.Q + params.N) * (1.0 - P / params.Q)
    # two-point at its smallest power and above it
    for a in (math.sqrt(2.0 * params.Q / math.pi), 0.3):
        P, S = two_point_costs(TwoPointPolicy(a), params)
        assert 0.0 < env.at(P) <= S * (1.0 + 1e-9)


def test_no_coord_point_lies_below_the_envelope_at_the_study_point(params):
    env = Envelope(params)
    feasible = 0
    for P in np.linspace(0.0, params.Q, 13):
        try:
            S, _ = mmse_coord(float(P), params)
        except EmptyFeasibleSet:
            continue
        feasible += 1
        assert S > env.at(float(P))
    assert feasible == 10


@pytest.mark.parametrize("P, below", [(0.004, True), (0.006, True), (0.02, False)])
def test_coord_lies_below_the_envelope_at_small_noise(P, below):
    # at N/Q = 1e-3 coord gains on the envelope just above its minimum power
    # (about 0.0029) and loses it again at larger powers: S is 1.3% and 0.8%
    # below the envelope at P = 0.004 and 0.006, and 3.0% above at 0.02
    params = validate_params(1.0, 1e-3)
    S, _ = mmse_coord(P, params)
    assert (S < Envelope(params).at(P)) is below


@pytest.mark.parametrize("n, below", [(1e-2, False), (8e-3, True)])
def test_the_claim_turns_between_these_noise_ratios_near_the_minimum_power(n, below):
    # Every cost scales with Q, so the claim depends on n = N/Q alone. Near
    # coord's minimum power its gain on the envelope, 1 - S/envelope, peaks at
    # about 1.009 x coord_min_power: -0.43% at n = 1e-2 and +0.34% at 8e-3.
    # That peak crosses 0 at n* = 8.9e-3; at coord_min_power itself the gain
    # is -0.51% and +0.28%.
    params = validate_params(1.0, n)
    env = Envelope(params)
    pmin = coord_min_power(params)
    gains = []
    for f in (1.0, 1.001, 1.01, 1.05):
        S, _ = mmse_coord(f * pmin, params)
        gains.append(1.0 - S / env.at(f * pmin))
    if below:
        assert gains[0] > 0.002 and max(gains) > 0.003
    else:
        assert max(gains) < -0.004
