import math
import os
import subprocess
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witsenhausen import montecarlo
from witsenhausen.core import EmpiricalCost, power_split, validate_params
from witsenhausen.montecarlo import (
    SimConfig,
    _merge,
    _moments,
    simulate_hybrid_conditional,
    simulate_linear,
    simulate_two_point,
)
from witsenhausen.skewnormal import (
    CoordPolicy,
    coord_mmse_at_rho,
    skew_cond_mean,
)
from witsenhausen.strategies import (
    LinearPolicy,
    TwoPointPolicy,
    linear_policy_for_power,
    mmse_linear,
    two_point_costs,
    two_point_min_power,
)

from skew_oracles import cov_interim_output_precoder


def within(closed, mean, stderr, k=4.0):
    return abs(mean - closed) <= k * stderr


def test_sim_config_rejects_tiny_samples():
    with pytest.raises(ValueError):
        SimConfig(n_samples=10)
    for bad in (dict(n_samples=math.nan), dict(n_samples=math.inf),
                dict(n_samples=10_000, seed=math.nan)):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(**bad)


def test_running_moments_match_numpy():
    rng = np.random.default_rng(0)
    x = rng.normal(size=10_000)
    mean, var_ddof1 = float(np.mean(x)), float(np.var(x, ddof=1))
    # _moments overwrites x chunk by chunk
    merged_mean, stderr = _merge(_moments(chunk) for chunk in np.array_split(x, 7))
    assert merged_mean == pytest.approx(mean, abs=1e-12)
    assert stderr == pytest.approx(math.sqrt(var_ddof1 / x.size), rel=1e-10)


def _three_simulations(params, cfg):
    return (
        simulate_linear(linear_policy_for_power(0.04, params), params, cfg),
        simulate_two_point(TwoPointPolicy(math.sqrt(params.Q)), params, cfg),
        simulate_hybrid_conditional(CoordPolicy(0.03, -0.5), params, cfg),
    )


@pytest.mark.parametrize(
    "cfg",
    # (config, batch size): several batches plus a remainder; batches shorter
    # than one CHUNK, and batches of several CHUNKs with a partial last one;
    # and the benchmark's shape in small, 5 batches of 3 slices
    [(SimConfig(50_000, seed=3), 8192),
     (SimConfig(100_003, seed=11), 65_537),
     (SimConfig(5 * 3 * montecarlo.CHUNK, seed=5), 3 * montecarlo.CHUNK)],
)
def test_worker_count_does_not_change_the_estimates(params, cfg, monkeypatch):
    cfg, batch = cfg
    monkeypatch.setattr(montecarlo, "BATCH", batch)
    monkeypatch.setattr(montecarlo, "_worker_count", lambda n_batches: 1)
    one = _three_simulations(params, cfg)
    for workers in (2, 3):
        monkeypatch.setattr(
            montecarlo, "_worker_count", lambda n_batches: workers
        )
        assert _three_simulations(params, cfg) == one, workers


def test_many_workers_on_many_batches_keep_the_estimates(params, monkeypatch):
    # more workers than cores, switching threads every microsecond, claim
    # and draw the 1000-sample slices of 60 batches: a slice drawn twice or
    # left out would move an estimate or leave a slice's moments unset
    monkeypatch.setattr(montecarlo, "BATCH", 1000)
    cfg = SimConfig(60_000, seed=8)
    monkeypatch.setattr(montecarlo, "_worker_count", lambda n_batches: 1)
    one = _three_simulations(params, cfg)
    monkeypatch.setattr(montecarlo, "_worker_count", lambda n_batches: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        four = _three_simulations(params, cfg)
    finally:
        sys.setswitchinterval(interval)
    assert four == one


def test_slices_are_claimed_round_robin_over_the_batches(params, monkeypatch):
    # each claim takes the batch with the most slices unclaimed, the lowest
    # index among equals, so every batch advances from its first slice; the
    # one-slice remainder batch waits until the others have one slice left
    monkeypatch.setattr(montecarlo, "BATCH", 2 * montecarlo.CHUNK)
    monkeypatch.setattr(montecarlo, "_worker_count", lambda n_batches: 1)
    fills = []  # the batch of each standard_normal fill
    batch_rng = montecarlo._batch_rng

    def logged_rng(seed, b):
        rng = batch_rng(seed, b)

        def standard_normal(out):
            fills.append(b)
            return rng.standard_normal(out=out)

        return SimpleNamespace(standard_normal=standard_normal)

    monkeypatch.setattr(montecarlo, "_batch_rng", logged_rng)
    pol = linear_policy_for_power(0.04, params)
    simulate_linear(pol, params, SimConfig(6 * montecarlo.CHUNK + 1000, seed=2))
    # two fills per slice, x0's and z's
    assert fills[::2] == fills[1::2] == [0, 1, 2, 0, 1, 2, 3]


def test_threaded_run_does_not_load_concurrent_futures():
    # the workers are plain threads: importing concurrent.futures costs
    # about 5 ms, which a linear or two-point run would pay for nothing
    code = (
        "import sys\n"
        "from witsenhausen import montecarlo\n"
        "from witsenhausen.core import validate_params\n"
        "from witsenhausen.strategies import linear_policy_for_power\n"
        "montecarlo.BATCH = 20_000\n"
        "montecarlo._worker_count = lambda n_batches: 2\n"
        "p = validate_params(0.1, 0.01)\n"
        "montecarlo.simulate_linear(\n"
        "    linear_policy_for_power(0.04, p), p, montecarlo.SimConfig(60_000)\n"
        ")\n"
        "print(sorted(m for m in sys.modules if m.startswith('concurrent')))\n"
    )
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_worker_failure_reaches_the_caller(monkeypatch):
    # batches of 40 000, 40 000 and 20 003 samples: only the last slice of
    # the last batch holds 20 003 - CHUNK samples
    monkeypatch.setattr(montecarlo, "BATCH", 40_000)
    monkeypatch.setattr(montecarlo, "_worker_count", lambda n_batches: 2)

    def step(x0, z, tmp):
        if x0.size == 20_003 - montecarlo.CHUNK:
            raise ZeroDivisionError("failing slice")
        return x0, z

    threads = threading.active_count()
    with pytest.raises(ZeroDivisionError, match="failing slice"):
        montecarlo._run(SimConfig(100_003, seed=4), (1.0, 1.0), step)
    assert threading.active_count() == threads


def test_estimates_are_pinned(params, monkeypatch):
    # the estimates of the PCG64DXSM streams drawn slice by slice, bit for bit
    monkeypatch.setattr(montecarlo, "BATCH", 65_537)
    cfg = SimConfig(100_003, seed=11)
    pinned = (
        (0.04008414055495619, 0.00017939421423022737,
         0.005775229285954894, 2.583832791348658e-05),
        (0.04045948199899986, 0.00016222744761607504,
         0.0002725472731658689, 2.5956092852881735e-05),
        (0.030017141434788792, 0.00013388018635109592,
         0.006726616214921986, 3.220250116224231e-05),
    )
    assert _three_simulations(params, cfg) == tuple(
        EmpiricalCost(*fields) for fields in pinned
    )


@pytest.mark.parametrize(
    "cfg, pinned",
    [
        # batches shorter than one CHUNK, and a short remainder batch
        ((SimConfig(50_000, seed=3), 8192),
         (0.03025212653564557, 0.00019199967134730863,
          0.00658696241301337, 4.490851709056915e-05)),
        # one batch of two full slices and a partial last one
        ((SimConfig(40_000, seed=5), 40_000),
         (0.029967115692623565, 0.00021302413987258376,
          0.006727729988048963, 5.0714471739190445e-05)),
    ],
)
def test_sliced_noise_draw_keeps_the_hybrid_estimates(
    params, cfg, pinned, monkeypatch
):
    # the hybrid simulator's three draws, streamed one slice of each at a
    # time, bit for bit
    cfg, batch = cfg
    monkeypatch.setattr(montecarlo, "BATCH", batch)
    cp = CoordPolicy(0.03, -0.5)
    assert simulate_hybrid_conditional(cp, params, cfg) == EmpiricalCost(*pinned)


def test_merged_slice_moments_match_numpy(monkeypatch):
    # the moments of every slice of a multi-batch run, merged, against NumPy
    # over the same draws taken from each batch's stream in the same order
    batch, n, scales = 40_000, 100_003, (1.5, 0.5)
    monkeypatch.setattr(montecarlo, "BATCH", batch)

    def step(x0, z, tmp):
        # u1 = x0 + 1 and err = x0 - z, in place in the slices
        np.subtract(x0, z, out=z)
        x0 += 1.0
        return x0, z

    emp = montecarlo._run(SimConfig(n, seed=4), scales, step)
    x0, z = [], []
    for b, lo in enumerate(range(0, n, batch)):
        rng = montecarlo._batch_rng(4, b)
        size = min(batch, n - lo)
        for start in range(0, size, montecarlo.CHUNK):
            m = min(montecarlo.CHUNK, size - start)
            x0.append(scales[0] * rng.standard_normal(m))
            z.append(scales[1] * rng.standard_normal(m))
    x0, z = np.concatenate(x0), np.concatenate(z)
    for x, mean, stderr in (((x0 + 1.0) ** 2, emp.power_mean, emp.power_stderr),
                            ((x0 - z) ** 2, emp.mmse_mean, emp.mmse_stderr)):
        assert mean == pytest.approx(float(np.mean(x)), abs=1e-12)
        assert stderr == pytest.approx(
            math.sqrt(float(np.var(x, ddof=1)) / n), rel=1e-10
        )


def test_simulation_memory_is_a_few_arrays_per_worker(params, monkeypatch):
    # tracemalloc sees NumPy's buffers; a batch holds no whole array, only
    # its CHUNK-long draw and scratch buffers and the coord decoder's
    # temporaries of one slice (about 6.3 CHUNK arrays per worker for coord,
    # 3.2 for the others), so the peak does not grow with the batch size
    cp = CoordPolicy(0.03, -0.5)
    simulations = {
        "linear": lambda cfg: simulate_linear(
            linear_policy_for_power(0.04, params), params, cfg
        ),
        "two-point": lambda cfg: simulate_two_point(
            TwoPointPolicy(math.sqrt(params.Q)), params, cfg
        ),
        "coord": lambda cfg: simulate_hybrid_conditional(cp, params, cfg),
    }
    base = montecarlo.BATCH
    for name, simulate in simulations.items():
        # untraced: the first run's imports and one-time set-up
        monkeypatch.setattr(montecarlo, "BATCH", 1000)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda n_batches: 2)
        simulate(SimConfig(2000, seed=1))
        for batch in (base, 2 * base):
            monkeypatch.setattr(montecarlo, "BATCH", batch)
            for workers in (1, 2):
                monkeypatch.setattr(
                    montecarlo, "_worker_count", lambda n_batches: workers
                )
                tracemalloc.start()
                try:
                    simulate(SimConfig(2 * batch, seed=1))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                arrays = peak / (workers * montecarlo.CHUNK * 8)
                assert arrays <= 8.0, (name, batch, workers, arrays)


def test_signs_match_where():
    # -0.0 counts as >= 0, as in np.where(x >= 0.0, 1.0, -1.0)
    x = np.array([-0.0, 0.0, -5e-324, 5e-324, -2.5, 3.0, -math.inf, math.inf])
    out = np.empty_like(x)
    assert montecarlo._signs(x, out=out) is out
    assert np.array_equal(out, np.where(x >= 0.0, 1.0, -1.0))
    assert not np.signbit(out[:2]).any()


def test_deterministic_replay(params, monkeypatch):
    monkeypatch.setattr(montecarlo, "BATCH", 16_384)
    cfg = SimConfig(n_samples=50_000, seed=123)
    pol = linear_policy_for_power(0.04, params)
    a = simulate_linear(pol, params, cfg)
    b = simulate_linear(pol, params, cfg)
    assert a == b


def test_different_seeds_differ(params):
    pol = linear_policy_for_power(0.04, params)
    a = simulate_linear(pol, params, SimConfig(50_000, seed=1))
    b = simulate_linear(pol, params, SimConfig(50_000, seed=2))
    assert a.mmse_mean != b.mmse_mean


def test_stderr_scaling(params):
    pol = linear_policy_for_power(0.04, params)
    ratios = []
    for seed in range(10):
        small = simulate_linear(pol, params, SimConfig(4000, seed=seed))
        large = simulate_linear(pol, params, SimConfig(16_000, seed=seed + 100))
        ratios.append(small.mmse_stderr / large.mmse_stderr)
    mean_ratio = float(np.mean(ratios))
    assert 1.6 <= mean_ratio <= 2.4


class TestLinear:
    def test_full_cancellation(self, params):
        emp = simulate_linear(LinearPolicy(-1.0, 0.0), params, SimConfig(100_000, seed=5))
        assert within(params.Q, emp.power_mean, emp.power_stderr)
        assert emp.mmse_mean == emp.mmse_stderr == 0.0

    def test_no_control(self, params):
        emp = simulate_linear(LinearPolicy(0.0, 0.0), params, SimConfig(200_000, seed=6))
        Q, N = params.Q, params.N
        assert emp.power_mean == 0.0
        assert within(Q * N / (Q + N), emp.mmse_mean, emp.mmse_stderr)

    def test_study_point(self, params):
        pol = linear_policy_for_power(0.04, params)
        emp = simulate_linear(pol, params, SimConfig(1_000_000, seed=7))
        assert within(0.04, emp.power_mean, emp.power_stderr)
        assert within(mmse_linear(0.04, params), emp.mmse_mean, emp.mmse_stderr)

    def test_offset_branch(self, params):
        pol = linear_policy_for_power(2 * params.Q, params)
        emp = simulate_linear(pol, params, SimConfig(200_000, seed=8))
        assert within(2 * params.Q, emp.power_mean, emp.power_stderr)
        # the state is cancelled and the offset decoded exactly, as in the
        # closed form, whose cost is exactly 0
        assert emp.mmse_mean == emp.mmse_stderr == 0.0


class TestTwoPoint:
    def test_zero_magnitude(self, params):
        emp = simulate_two_point(TwoPointPolicy(0.0), params, SimConfig(100_000, seed=9))
        assert within(params.Q, emp.power_mean, emp.power_stderr)
        assert emp.mmse_mean == 0.0

    def test_minimum_power(self, params):
        a = math.sqrt(2 * params.Q / math.pi)
        emp = simulate_two_point(TwoPointPolicy(a), params, SimConfig(500_000, seed=10))
        assert within(two_point_min_power(params), emp.power_mean, emp.power_stderr)

    def test_matches_quadrature(self, params):
        # magnitudes kept below ~4 noise sigmas so the squared error is not a
        # rare-event expectation at this sample size
        for seed, a in enumerate((0.05, math.sqrt(params.Q), 0.4)):
            P, S = two_point_costs(TwoPointPolicy(a), params)
            emp = simulate_two_point(
                TwoPointPolicy(a), params, SimConfig(500_000, seed=20 + seed)
            )
            assert within(P, emp.power_mean, emp.power_stderr)
            assert within(S, emp.mmse_mean, emp.mmse_stderr)

    def test_unit_noise_regression(self):
        # the historical self-consistency point: N = 1, a = sqrt(Q)
        p = validate_params(1.0, 1.0)
        a = 1.0
        _, S = two_point_costs(TwoPointPolicy(a), p)
        emp = simulate_two_point(TwoPointPolicy(a), p, SimConfig(500_000, seed=11))
        assert within(S, emp.mmse_mean, emp.mmse_stderr)


class TestHybrid:
    def test_matches_closed_form(self, params):
        cp = CoordPolicy(0.03, -0.5)
        emp = simulate_hybrid_conditional(cp, params, SimConfig(1_000_000, seed=12))
        assert within(cp.P, emp.power_mean, emp.power_stderr)
        assert within(coord_mmse_at_rho(cp, params), emp.mmse_mean, emp.mmse_stderr)

    def test_decoder_at_zero_output(self, params):
        T, N = power_split(0.03, params.Q, -0.3)[2], params.N
        expected = math.sqrt(T * N / (T + N)) * math.sqrt(2 / math.pi)
        assert skew_cond_mean(0.0, T, N) == pytest.approx(expected, rel=1e-12)

    def test_sign_halves_agree(self, params):
        # independent re-draw; the two sign-conditioned halves are mirror images
        T, N = power_split(0.04, params.Q, -0.4)[2], params.N
        rng = np.random.default_rng(77)
        n = 1_000_000
        x1 = rng.normal(scale=math.sqrt(T), size=n)
        y = x1 + rng.normal(scale=math.sqrt(N), size=n)
        pos = x1 >= 0.0
        err_pos = (x1[pos] - skew_cond_mean(y[pos], T, N)) ** 2
        err_neg = (x1[~pos] + skew_cond_mean(-y[~pos], T, N)) ** 2
        m1, m2 = float(np.mean(err_pos)), float(np.mean(err_neg))
        s1 = float(np.std(err_pos, ddof=1)) / math.sqrt(err_pos.size)
        s2 = float(np.std(err_neg, ddof=1)) / math.sqrt(err_neg.size)
        assert abs(m1 - m2) <= 4 * math.hypot(s1, s2)

    def test_rejects_degenerate_interim_state(self, params):
        with pytest.raises(ValueError):
            simulate_hybrid_conditional(
                CoordPolicy(params.Q, -1.0),
                params,
                SimConfig(10_000, seed=1),
            )

    def test_rejects_a_power_above_q(self, params):
        for P in (math.nextafter(params.Q, math.inf), 0.2):
            with pytest.raises(ValueError, match=r"outside \[0, Q="):
                simulate_hybrid_conditional(
                    CoordPolicy(P, 0.0), params, SimConfig(10_000, seed=1)
                )


@given(
    k=st.integers(-15, 15),
    log_q=st.floats(-2.0, 1.0),
    log_ratio=st.floats(-4.0, 1.0),
    u=st.floats(0.05, 1.0),
    rho=st.floats(-0.95, 0.95),
)
@settings(max_examples=30, deadline=None)
def test_estimates_scale_with_the_variances(k, log_q, log_ratio, u, rho):
    # c = 4^k scales the variances and the power exactly and 2^k = sqrt(c) the
    # magnitudes, so with the same seed every draw, and every estimate, is the
    # same up to the factor c
    c, root_c = 4.0**k, 2.0**k
    Q = 10.0**log_q
    N, P = Q * 10.0**log_ratio, u * Q
    cfg = SimConfig(4000, seed=k % 7)

    def runs(c, root_c):
        params = validate_params(c * Q, c * N)
        lin = linear_policy_for_power(2.0 * P, validate_params(Q, N))
        return (
            simulate_linear(LinearPolicy(lin.a, root_c * lin.b), params, cfg),
            simulate_two_point(TwoPointPolicy(root_c * math.sqrt(P)), params, cfg),
            simulate_hybrid_conditional(CoordPolicy(c * P, rho), params, cfg),
        )

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "BATCH", 1500)
        pairs = list(zip(runs(1.0, 1.0), runs(c, root_c)))
    for base, scaled in pairs:
        for field in ("power_mean", "power_stderr", "mmse_mean", "mmse_stderr"):
            assert getattr(scaled, field) == c * getattr(base, field), field


def test_interim_output_precoder_covariance_matches_moments(params):
    # first-principles sampling of (interim state, output, precoder variable)
    cp = CoordPolicy(0.04, -0.4)
    predicted = cov_interim_output_precoder(cp, params)
    rng = np.random.default_rng(123)
    n = 2_000_000
    Q, N, P, rho = params.Q, params.N, cp.P, cp.rho
    p_res = P * (1 - rho * rho)
    s = math.sqrt(Q) + rho * math.sqrt(P)
    x0 = rng.normal(scale=math.sqrt(Q), size=n)
    resid = rng.normal(scale=math.sqrt(p_res), size=n)
    z = rng.normal(scale=math.sqrt(N), size=n)
    x1 = (s / math.sqrt(Q)) * x0 + resid
    y = x1 + z
    w1 = resid + (p_res / (p_res + N)) * (s / math.sqrt(Q)) * x0
    samples = np.stack([x1, y, w1])
    emp = np.cov(samples)
    for i in range(3):
        for j in range(3):
            a, b = samples[i], samples[j]
            stderr = math.sqrt(
                (np.var(a) * np.var(b) + emp[i, j] ** 2) / n
            )
            assert abs(emp[i, j] - predicted[i, j]) <= 4 * stderr


def test_four_stderr_coverage_over_seeds(params):
    # the 4-stderr agreement should hold in nearly every seeded trial
    pol = linear_policy_for_power(0.04, params)
    closed_lin = mmse_linear(0.04, params)
    tp = TwoPointPolicy(0.3)
    _, closed_tp = two_point_costs(tp, params)
    cp = CoordPolicy(0.05, -0.6)
    closed_cp = coord_mmse_at_rho(cp, params)
    hits = 0
    trials = 0
    for seed in range(100):
        cfg = SimConfig(5000, seed=seed)
        for emp, closed in (
            (simulate_linear(pol, params, cfg), closed_lin),
            (simulate_two_point(tp, params, cfg), closed_tp),
            (simulate_hybrid_conditional(cp, params, cfg), closed_cp),
        ):
            trials += 1
            hits += within(closed, emp.mmse_mean, emp.mmse_stderr)
    assert hits / trials >= 0.95
