import csv
import io
import json
import math
import os
import platform
import re
import shutil
import signal
import subprocess
import sys

import numpy as np
import pytest

import witsenhausen
from witsenhausen import numerics, skewnormal, strategies
from witsenhausen.cli import main
from witsenhausen.core import EmptyFeasibleSet, NonConvergence, validate_params


def run(argv):
    # main returns every exit code, help (0) and usage errors (2) included;
    # it raises no SystemExit
    return main(argv)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_curve_gaussian_grid(tmp_path):
    out = tmp_path / "gauss.csv"
    rc = run(
        [
            "curve", "--strategy", "gaussian", "--Q", "0.1", "--N", "0.01",
            "--p-min", "0", "--p-max", "0.1", "--steps", "101", "--out", str(out),
        ]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["P", "S", "strategy", "aux1", "aux2", "feasible"]
    assert len(rows) == 101
    assert all(r[2] == "gaussian" and r[5] == "true" for r in rows)
    # affine on the time-sharing interval
    pts = [(float(r[0]), float(r[1])) for r in rows]
    inside = [(p, s) for p, s in pts if 0.00128 <= p <= 0.0787]
    p, s = np.array(inside).T
    resid = s - np.polyval(np.polyfit(p, s, 1), p)
    assert np.max(np.abs(resid)) <= 1e-12


def test_curve_two_point_locus(tmp_path):
    out = tmp_path / "tp.csv"
    rc = run(
        [
            "curve", "--strategy", "two-point", "--Q", "0.1", "--N", "0.01",
            "--a-min", "0", "--a-max", "1", "--steps", "101", "--out", str(out),
        ]
    )
    assert rc == 0
    _, rows = read_csv(out)
    assert len(rows) == 101
    # locus starts at (Q, 0) and the power column is non-monotone
    assert float(rows[0][0]) == pytest.approx(0.1)
    powers = [float(r[0]) for r in rows]
    assert min(powers) < powers[0] and max(powers) > powers[0]


@pytest.mark.parametrize(
    "bound", [["--p-min", "0.04"], ["--p-max", "0.05"]], ids=["p-min", "p-max"]
)
def test_power_bounds_with_a_magnitude_sweep_are_a_usage_error(tmp_path, capsys, bound):
    # the sweep's powers are those of its magnitudes, so a power bound could
    # only be ignored
    argv = ["curve", "--strategy", "two-point", "--a-max", "1", *bound, "--steps", "3",
            "--out", str(tmp_path / "out.csv")]
    assert run(argv) == 2
    assert "do not apply to a magnitude sweep" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_curve_coord_reports_infeasible_rows(tmp_path):
    out = tmp_path / "coord.csv"
    rc = run(
        [
            "curve", "--strategy", "coord", "--Q", "0.1", "--N", "0.01",
            "--p-min", "0.001", "--p-max", "0.01", "--steps", "3", "--out", str(out),
        ]
    )
    assert rc == 0
    _, rows = read_csv(out)
    assert all(r[5] == "false" for r in rows)
    assert all(r[1] == "" for r in rows)


def test_manifest_written_and_complete(tmp_path):
    # no command that writes a manifest draws random numbers, so no seed
    keys = {"command", "argv", "Q", "N", "tolerances", "git_describe",
            "package_version", "python_version", "numpy_version",
            "scipy_version", "timestamp", "elapsed_s", "output"}
    out = tmp_path / "lin.csv"
    rc = run(["curve", "--strategy", "linear", "--steps", "11", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((tmp_path / "lin.csv.manifest").read_text())
    assert set(manifest) == keys
    assert manifest["command"] == "curve"
    assert manifest["package_version"] == witsenhausen.__version__
    assert manifest["python_version"] == platform.python_version()
    assert manifest["numpy_version"] == np.__version__
    assert manifest["elapsed_s"] > 0.0
    # the manifest names every SciPy that is loaded: load it here, before
    # the run, rather than count on other test modules having loaded it
    import scipy

    # psi takes no variances and records them as null
    assert run(["psi", "--steps", "5", "--out", str(tmp_path / "psi.csv")]) == 0
    manifest = json.loads((tmp_path / "psi.csv.manifest").read_text())
    assert set(manifest) == keys
    assert manifest["Q"] is None and manifest["N"] is None
    assert manifest["scipy_version"] == scipy.__version__


def _git(*args, cwd):
    return subprocess.run(
        ["git", *args], cwd=cwd, capture_output=True, text=True, timeout=30
    )


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_manifest_records_the_package_git_state(tmp_path, monkeypatch):
    # run from an unrelated repository with a commit of its own
    other = tmp_path / "other"
    other.mkdir()
    _git("init", "-q", cwd=other)
    _git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q",
         "--allow-empty", "-m", "x", cwd=other)
    monkeypatch.chdir(other)
    # a process that has not read the git state yet, so that this run reads it
    from witsenhausen import cli

    monkeypatch.setattr(cli, "_GIT", cli._GitState())
    assert run(["curve", "--strategy", "linear", "--steps", "3", "--out", "lin.csv"]) == 0
    recorded = json.loads((other / "lin.csv.manifest").read_text())["git_describe"]
    package = _git("describe", "--always", "--dirty",
                   cwd=os.path.dirname(witsenhausen.__file__))
    assert recorded == (package.stdout.strip() if package.returncode == 0 else "unknown")
    assert recorded != _git("describe", "--always", cwd=other).stdout.strip()


def _recording_popen(monkeypatch, started):
    """Make subprocess.Popen record every child it starts in `started`."""
    real = subprocess.Popen

    def recording(args, **kwargs):
        child = real(args, **kwargs)
        started.append((args[0], child))
        return child

    monkeypatch.setattr(subprocess, "Popen", recording)


def test_git_state_is_read_once_per_process(tmp_path, monkeypatch):
    from witsenhausen import cli

    started = []
    _recording_popen(monkeypatch, started)
    # a process that has not read the git state yet
    monkeypatch.setattr(cli, "_GIT", cli._GitState())
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        assert run(["curve", "--strategy", "linear", "--steps", "3", "--out", str(out)]) == 0
    recorded = [
        json.loads((tmp_path / f"{name}.csv.manifest").read_text())["git_describe"]
        for name in ("a", "b")
    ]
    assert [name for name, _ in started] == ["git"]
    assert recorded[0] == recorded[1]


def test_git_that_hangs_records_unknown_and_the_run_succeeds(tmp_path, monkeypatch):
    from witsenhausen import cli

    started = []

    class Hanging(subprocess.Popen):
        """A child that outlasts any wait, waited for 0.2 s instead of 5 s."""

        def __init__(self, args, **kwargs):
            super().__init__([sys.executable, "-c", "import time; time.sleep(60)"], **kwargs)
            started.append(self)

        def communicate(self, input=None, timeout=None):
            return super().communicate(input, None if timeout is None else 0.2)

    monkeypatch.setattr(subprocess, "Popen", Hanging)
    monkeypatch.setattr(cli, "_GIT", cli._GitState())
    out = tmp_path / "lin.csv"
    assert run(["curve", "--strategy", "linear", "--steps", "3", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "lin.csv.manifest").read_text())
    assert manifest["git_describe"] == "unknown"
    assert out.exists()
    # killed, then reaped
    assert len(started) == 1 and started[0].returncode == -signal.SIGKILL


def test_a_git_that_cannot_start_records_unknown(tmp_path, monkeypatch):
    from witsenhausen import cli

    def missing(args, **kwargs):
        raise FileNotFoundError(2, "No such file or directory", args[0])

    monkeypatch.setattr(subprocess, "Popen", missing)
    monkeypatch.setattr(cli, "_GIT", cli._GitState())
    out = tmp_path / "lin.csv"
    assert run(["curve", "--strategy", "linear", "--steps", "3", "--out", str(out)]) == 0
    assert json.loads((tmp_path / "lin.csv.manifest").read_text())["git_describe"] == "unknown"


@pytest.mark.parametrize("outcome", ["0", "2", "3", "raises"])
def test_no_git_child_outlives_main(tmp_path, monkeypatch, outcome):
    from witsenhausen import cli

    started = []
    _recording_popen(monkeypatch, started)
    monkeypatch.setattr(cli, "_GIT", cli._GitState())
    argv = ["compare", "--steps", "3", "--out", str(tmp_path / "c.csv")]
    if outcome == "2":
        argv += ["--Q", "0"]
    elif outcome != "0":
        exc = NonConvergence if outcome == "3" else RuntimeError

        def fail(*args):
            raise exc("raised on purpose")

        monkeypatch.setattr(strategies, "curve", fail)
    if outcome == "raises":
        with pytest.raises(RuntimeError, match="raised on purpose"):
            main(argv)
    else:
        assert run(argv) == int(outcome)
    assert [name for name, _ in started] == ["git"]
    assert started[0][1].returncode is not None
    assert cli._GIT.child is None


def test_simulate_starts_no_git(monkeypatch, capsys):
    from witsenhausen import cli

    started = []
    _recording_popen(monkeypatch, started)
    monkeypatch.setattr(cli, "_GIT", cli._GitState())
    assert run(["simulate", "--strategy", "linear", "--P", "0.05", "--n", "20000"]) == 0
    assert started == []
    assert capsys.readouterr().out.endswith("PASS\n")


def test_manifest_records_the_optimizer_tolerances(tmp_path, monkeypatch):
    used = set()

    def recording(f, lo, hi, tol, **kwargs):
        used.add(tol)
        return numerics.minimize_1d(f, lo, hi, tol, **kwargs)

    monkeypatch.setattr(skewnormal, "minimize_1d", recording)
    monkeypatch.setattr(strategies, "minimize_1d", recording)
    out = tmp_path / "cmp.csv"
    # a 13-step grid has powers where coord's search stops at its first
    # point and powers where that point is infeasible and the search runs on
    assert run(["compare", "--steps", "13", "--out", str(out)]) == 0
    tol = json.loads((tmp_path / "cmp.csv.manifest").read_text())["tolerances"]
    assert tol == {
        "quadrature_abs_tol": 1e-10,
        "quadrature_rel_tol": 1e-10,
        "coord_peak_rho_xtol": skewnormal.PEAK_RHO_TOL,
        "coord_edge_rho_xtol": skewnormal.EDGE_RHO_TOL,
        "lin_dpc_rho_xtol": strategies.LIN_DPC_RHO_TOL,
    }
    assert used == {tol["coord_peak_rho_xtol"], tol["lin_dpc_rho_xtol"]}


def test_rerun_from_manifest_is_byte_identical(tmp_path):
    args = ["curve", "--strategy", "lin-dpc", "--steps", "7", "--p-max", "0.08"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == 0
    # replay exactly what the manifest recorded, redirected to a new file
    recorded = json.loads((tmp_path / "a.csv.manifest").read_text())["argv"]
    replay = [a if a != str(out1) else str(out2) for a in recorded]
    assert run(replay) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_numbers_round_trip(tmp_path):
    out = tmp_path / "lin.csv"
    run(["curve", "--strategy", "linear", "--steps", "5", "--out", str(out)])
    _, rows = read_csv(out)
    from witsenhausen import mmse_linear, validate_params

    params = validate_params(0.1, 0.01)
    for r in rows:
        p = float(r[0])
        assert float(r[1]) == mmse_linear(p, params)


WRITTEN_TABLES = [
    ["curve", "--strategy", "coord", "--steps", "7"],
    ["curve", "--strategy", "two-point", "--a-min", "0", "--steps", "5"],
    ["compare", "--steps", "4"],
    ["psi", "--alpha-min", "-600", "--alpha-max", "600", "--steps", "9"],
]


@pytest.mark.parametrize("argv", WRITTEN_TABLES, ids=[" ".join(a) for a in WRITTEN_TABLES])
def test_csv_bytes_equal_the_csv_module(tmp_path, monkeypatch, argv):
    from witsenhausen import cli

    written = []
    write_csv = cli._write_csv

    def record(path, header, rows):
        written.append((header, rows))
        write_csv(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", record)
    out = tmp_path / "table.csv"
    assert run(argv + ["--out", str(out)]) == 0
    [(header, rows)] = written
    if argv[0] == "curve":
        assert all(r[4] == "" for r in rows)  # no curve here sets aux2
    if "coord" in argv:
        assert any(r[1] == r[3] == "" for r in rows)  # infeasible: no S, no rho
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows([header, *rows])
    assert out.read_bytes() == expected.getvalue().encode("utf-8")


@pytest.mark.parametrize("field", [",", "1,5", '"', 'x"y', "\n", "a\nb", "\r"])
def test_a_field_that_needs_quoting_is_a_program_error(tmp_path, field):
    from witsenhausen import cli

    out = tmp_path / "table.csv"
    out.write_text("earlier run\n")
    rows = [["0.0", "1.0"], ["2.0", field]]
    with pytest.raises(RuntimeError, match="table.csv"):
        cli._write_csv(str(out), ["P", "S"], rows)
    assert out.read_text() == "earlier run\n"
    with pytest.raises(RuntimeError, match="fresh.csv"):
        cli._write_csv(str(tmp_path / "fresh.csv"), ["P", "S"], rows)
    assert not (tmp_path / "fresh.csv").exists()


def test_compare_columns(tmp_path):
    out = tmp_path / "cmp.csv"
    rc = run(
        ["compare", "--Q", "0.1", "--N", "0.01", "--p-min", "0.02",
         "--p-max", "0.05", "--steps", "4", "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["P", "linear", "gaussian", "two_point", "dpc", "lin_dpc", "coord"]
    assert len(rows) == 4
    for r in rows:
        # lin-dpc never above any other defined column
        ref = float(r[5])
        for col in (1, 2, 3, 4, 6):
            if r[col]:
                assert ref <= float(r[col]) + 1e-12
    # the hybrid scheme reaches below the two-point minimum power
    pmin_two = 0.1 * (1 - 2 / math.pi)
    assert any(r[6] and not r[3] and float(r[0]) < pmin_two for r in rows)


def test_compare_degenerate_regime_gaussian_equals_linear(tmp_path):
    out = tmp_path / "unit.csv"
    rc = run(
        ["compare", "--Q", "1", "--N", "1", "--p-min", "0", "--p-max", "1",
         "--steps", "6", "--out", str(out)]
    )
    assert rc == 0
    _, rows = read_csv(out)
    for r in rows:
        assert r[1] == r[2]


@pytest.mark.parametrize("P", ["0.04", "0.2"])
def test_simulate_linear_pass(capsys, P):
    # above Q = 0.1 the policy cancels the state and the cost is exactly 0
    rc = run(
        ["simulate", "--strategy", "linear", "--P", P, "--n", "200000",
         "--seed", "3"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out
    if float(P) > 0.1:
        assert " mmse  closed=0 empirical=0 stderr=0 " in out


def test_simulate_two_point_pass(capsys):
    rc = run(
        ["simulate", "--strategy", "two-point", "--a", str(math.sqrt(0.1)),
         "--n", "200000", "--seed", "4"]
    )
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_simulate_coord_pass(capsys):
    rc = run(
        ["simulate", "--strategy", "coord", "--P", "0.03", "--rho", "-0.5",
         "--n", "200000", "--seed", "5"]
    )
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("strategy", [["linear"], ["coord", "--rho", "0"]],
                         ids=["linear", "coord"])
def test_simulate_passes_where_T_times_N_overflows(strategy, capsys):
    # T N ~ 1.5e310 overflows, while every square the moments take fits
    argv = ["simulate", "--strategy", *strategy, "--Q", "1e150", "--N", "1e160",
            "--P", "5e149", "--n", "20000", "--seed", "1"]
    assert run(argv) == 0
    assert "PASS" in capsys.readouterr().out


def test_simulate_refuses_tiny_sample_count():
    assert run(["simulate", "--strategy", "linear", "--P", "0.04", "--n", "10"]) == 2


def test_simulate_rejects_a_negative_seed_before_it_runs(capsys):
    argv = ["simulate", "--strategy", "linear", "--P", "0.04", "--n", "1000", "--seed", "-1"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "seed" in captured.err
    assert captured.out == ""


def test_simulate_requires_policy_arguments():
    assert run(["simulate", "--strategy", "linear"]) == 2
    assert run(["simulate", "--strategy", "two-point"]) == 2
    assert run(["simulate", "--strategy", "coord", "--P", "0.03"]) == 2


def test_simulate_coord_power_above_q_is_a_usage_error(capsys):
    argv = ["simulate", "--strategy", "coord", "--P", "0.2", "--rho", "0", "--n", "1000"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "P=0.2 outside [0, Q=0.1]" in captured.err
    assert captured.out == ""


def test_psi_table(tmp_path):
    out = tmp_path / "psi.csv"
    rc = run(
        ["psi", "--alpha-min", "-10", "--alpha-max", "10", "--steps", "41",
         "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["alpha", "psi"]
    table = {float(a): float(v) for a, v in rows}
    assert table[0.0] == 0.0
    assert max(table.values()) < 1.0
    for a, v in table.items():
        assert v == pytest.approx(table[-a], abs=1e-10)


def test_psi_takes_a_negative_exponent_after_a_space(tmp_path):
    out = tmp_path / "psi.csv"
    rc = run(["psi", "--alpha-min", "-1e-3", "--alpha-max", "1", "--steps", "3",
              "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert [float(r[0]) for r in rows] == list(np.linspace(-1e-3, 1.0, 3))


UNREAD_OPTIONS = [
    ["curve", "--strategy", "linear", "--seed", "1"],
    ["compare", "--seed", "1"],
    ["psi", "--seed", "1"],
    ["psi", "--Q", "1"],
    ["psi", "--N", "1"],
    # the quadratures have no settings
    ["curve", "--strategy", "linear", "--tol", "1e-10"],
    ["compare", "--tol", "1e-10"],
    ["psi", "--tol", "1e-10"],
]


@pytest.mark.parametrize("argv", UNREAD_OPTIONS, ids=[" ".join(a) for a in UNREAD_OPTIONS])
def test_options_a_command_does_not_read_are_rejected(tmp_path, argv):
    assert run(argv + ["--out", str(tmp_path / "out.csv")]) == 2
    assert list(tmp_path.iterdir()) == []


def test_simulate_has_no_tolerance_option(capsys):
    argv = ["simulate", "--strategy", "linear", "--P", "0.04", "--n", "10000",
            "--tol", "1e-10"]
    assert run(argv) == 2
    assert capsys.readouterr().out == ""


NON_FINITE = [
    ["simulate", "--strategy", "linear", "--P", "nan"],
    ["simulate", "--strategy", "linear", "--P", "inf"],
    ["simulate", "--strategy", "two-point", "--a", "nan"],
    ["simulate", "--strategy", "two-point", "--a", "inf"],
    ["simulate", "--strategy", "coord", "--P", "0.03", "--rho", "nan"],
]


@pytest.mark.parametrize("argv", NON_FINITE, ids=[" ".join(a) for a in NON_FINITE])
def test_non_finite_input_is_a_usage_error(tmp_path, capsys, argv):
    if argv[0] == "simulate":
        argv = argv + ["--n", "10000"]
    else:
        argv = argv + ["--steps", "3", "--out", str(tmp_path / "out.csv")]
    assert run(argv) == 2
    assert "invalid arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_two_point_magnitude_with_infinite_power_is_a_usage_error(tmp_path, capsys):
    # a = 1e200 is finite, but a^2 and so the power Q + a(a - 2 sqrt(2Q/pi)) is not
    assert run(["simulate", "--strategy", "two-point", "--a", "1e200", "--n", "1000"]) == 2
    assert "power that is not finite" in capsys.readouterr().err
    out = tmp_path / "out.csv"
    argv = ["curve", "--strategy", "two-point", "--a-min", "0", "--a-max", "1e200",
            "--steps", "3", "--out", str(out)]
    assert run(argv) == 2
    assert "power that is not finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_two_point_cost_underflows_to_zero_at_huge_magnitudes(tmp_path):
    # a^2 phi(a/sqrt(N)) is inf * 0 when formed directly; the cost is exactly 0
    out = tmp_path / "out.csv"
    argv = ["curve", "--strategy", "two-point", "--a-min", "0", "--a-max", "1.3e154",
            "--steps", "3", "--out", str(out)]
    assert run(argv) == 0
    _, rows = read_csv(out)
    assert [r[1] for r in rows] == ["0.0", "0.0", "0.0"]
    assert all(math.isfinite(float(r[0])) for r in rows)


def test_two_point_magnitude_too_large_to_simulate_is_a_usage_error(capsys):
    # the power 1e160 is finite, but the moments of u1^2 square it: 1e320
    assert run(["simulate", "--strategy", "two-point", "--a", "1e80", "--n", "1000"]) == 2
    captured = capsys.readouterr()
    assert "too large to simulate" in captured.err
    assert "nan" not in captured.out


@pytest.mark.parametrize(
    "strategy",
    [["linear"], ["coord", "--rho", "-0.5"]],
    ids=["linear", "coord"],
)
def test_power_too_large_to_simulate_is_a_usage_error(strategy, capsys):
    # P = 1e159 is finite, but the moments of u1^2 square it: 1e318
    argv = ["simulate", "--strategy", *strategy, "--Q", "1e160", "--N", "1",
            "--P", "1e159", "--n", "1000"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "too large to simulate" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("scale", ["1e300", "1e-300"])
@pytest.mark.parametrize("strategy", strategies.STRATEGIES)
def test_extreme_variances_scale_the_unit_curve(tmp_path, strategy, scale):
    # the middle row is P = Q/2; every family evaluates in units of Q, so it
    # is the Q = N = 1 row with S multiplied by Q
    rows = {}
    for q in ("1", scale):
        out = tmp_path / f"{q}.csv"
        argv = ["curve", "--strategy", strategy, "--Q", q, "--N", q,
                "--p-min", "0", "--p-max", q, "--steps", "3", "--out", str(out)]
        assert run(argv) == 0
        rows[q] = read_csv(out)[1][1]
    unit, big = rows["1"], rows[scale]
    assert float(big[0]) == float(scale) / 2
    assert big[5] == unit[5]
    if unit[5] == "true":
        assert float(big[1]) == float(scale) * float(unit[1])


def test_noise_ratio_outside_double_range_is_a_usage_error(tmp_path, capsys):
    # N/Q = 1e-600 is 0 in double precision
    out = tmp_path / "out.csv"
    argv = ["curve", "--strategy", "linear", "--Q", "1e300", "--N", "1e-300",
            "--steps", "3", "--out", str(out)]
    assert run(argv) == 2
    assert "ratio N/Q" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


SIMULATE_POLICIES = {
    "linear": lambda q: ["--P", repr(q / 2)],
    "two-point": lambda q: ["--a", repr(math.sqrt(q))],
    "coord": lambda q: ["--P", repr(q / 2), "--rho", "-0.5"],
}


@pytest.mark.parametrize("scale", [1e300, 1e-300])
@pytest.mark.parametrize("strategy", sorted(SIMULATE_POLICIES))
def test_variances_too_extreme_to_simulate_are_a_usage_error(strategy, scale, capsys):
    # the closed forms hold at these scales, but the squares of the power and
    # of the error, of the order of (P + Q)^2, leave the double range
    argv = ["simulate", "--strategy", strategy, "--Q", repr(scale), "--N", repr(scale),
            *SIMULATE_POLICIES[strategy](scale), "--n", "1000"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "to simulate" in captured.err
    assert captured.out == ""


def test_two_point_power_below_rounding_is_a_usage_error(capsys):
    # at n = 1e6 and Q = 0.1 the measured 4-standard-error band of the power
    # is 1.5e10 at a = 1e13, below 2 ulps of P(a) = 1e26 (3.4e10), so one
    # rounding step of P(a) would fail the verdict; at a = 4e12 it is 6.1e9,
    # above 2 ulps of 1.6e25 (4.3e9), and the run passes
    argv = ["simulate", "--strategy", "two-point", "--n", "1000000", "--a"]
    assert run(argv + ["1e13"]) == 2
    captured = capsys.readouterr()
    assert "narrower than 2 ulps" in captured.err
    assert captured.out == ""
    assert run(argv + ["4e12"]) == 0
    assert capsys.readouterr().out.endswith("PASS\n")


@pytest.mark.parametrize(
    "argv",
    [
        # the power's band 2.6e12 is below 2 ulps of P = 1e30 (2.8e14)
        ["--strategy", "linear", "--P", "1e30", "--n", "1000000"],
        # the error x1 - estimate cancels against x1 ~ 1e76: band 0, mmse 1
        ["--strategy", "linear", "--Q", "1e152", "--N", "1", "--P", "1e151", "--n", "1000"],
        # the mmse 1.4e-196 is nonzero, but no sample sees it: band 0
        ["--strategy", "two-point", "--a", "3", "--n", "100000"],
    ],
    ids=["linear-power", "linear-mmse", "two-point-mmse"],
)
def test_simulate_band_narrower_than_rounding_is_a_usage_error(argv, capsys):
    assert run(["simulate", *argv]) == 2
    captured = capsys.readouterr()
    assert "narrower than 2 ulps" in captured.err
    assert captured.out == ""


def test_linear_power_verdict_needs_a_band_of_2_ulps(capsys):
    # at n = 1e6 the band of P = 1e24 is 2.5e9, above 2 ulps (2.7e8); that of
    # P = 1e26 is 2.5e10, below 2 ulps (3.4e10), so it is refused even though
    # its rounding happens to fall inside the band
    argv = ["simulate", "--strategy", "linear", "--n", "1000000", "--P"]
    assert run(argv + ["1e24"]) == 0
    assert capsys.readouterr().out.endswith("PASS\n")
    assert run(argv + ["1e26"]) == 2
    captured = capsys.readouterr()
    assert "narrower than 2 ulps" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("ratio", ["3e-9", "1e-9", "1e-10", "1e-14", "1e-16", "1e-17", "1e-200", "1e-307"])
def test_gaussian_curve_holds_at_tiny_noise_ratios(tmp_path, ratio):
    # the lower end of the time-sharing interval, about N^2/Q, must not
    # round to 0 and so put P = 0 inside the interval
    out = tmp_path / "gaussian.csv"
    argv = ["curve", "--strategy", "gaussian", "--Q", "1", "--N", ratio,
            "--steps", "5", "--out", str(out)]
    assert run(argv) == 0
    _, rows = read_csv(out)
    assert all(r[5] == "true" and math.isfinite(float(r[1])) for r in rows)


@pytest.mark.parametrize(
    "Q, N",
    [("1", "1e-300"), ("1", "1e-200"), ("1", "1e160"), ("1", "1e300"), ("1e300", "1e-8")],
    ids=["1e-300", "1e-200", "1e160", "1e300", "Q1e300-N1e-8"],
)
def test_coord_curve_holds_over_the_double_range_of_noise_ratios(tmp_path, Q, N):
    out = tmp_path / "coord.csv"
    argv = ["curve", "--strategy", "coord", "--Q", Q, "--N", N,
            "--steps", "3", "--out", str(out)]
    assert run(argv) == 0
    _, rows = read_csv(out)
    feasible = [r for r in rows if r[5] == "true"]
    # the estimation cost never exceeds the noise variance N
    assert all(0.0 <= float(r[1]) <= float(N) for r in feasible)
    if float(N) > float(Q):
        assert feasible == []


def _fresh_python(code, *args):
    """Run `code` in a new interpreter that imports this package; its stdout."""
    src = os.path.dirname(os.path.dirname(witsenhausen.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_closed_form_commands_run_without_scipy(tmp_path):
    # importing scipy.special adds about 0.4 s to every run's start-up; these
    # commands call no SciPy function, so they must run where none can load.
    # The option table parses them, so neither argparse nor gettext loads
    # either (SciPy imports argparse, so a command that loads SciPy would)
    out = str(tmp_path / "out.csv")
    commands = [
        ["curve", "--strategy", s, "--steps", "5", "--out", out]
        for s in ("linear", "gaussian", "two-point", "dpc", "lin-dpc")
    ] + [
        ["curve", "--strategy", "two-point", "--a-min", "0", "--steps", "5", "--out", out],
        ["psi", "--steps", "3", "--out", out],
        ["simulate", "--strategy", "linear", "--P", "0.05", "--n", "2000"],
        ["simulate", "--strategy", "two-point", "--a", "0.3", "--n", "2000"],
    ]
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None  # any import of SciPy now raises ImportError\n"
        "from witsenhausen.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted({'argparse', 'gettext'} & set(sys.modules))]))\n"
    )
    stdout = _fresh_python(code, json.dumps(commands))
    assert json.loads(stdout.splitlines()[-1]) == [[0] * len(commands), []]
    # the manifest of the last table records that SciPy was not loaded
    with open(out + ".manifest") as f:
        assert json.load(f)["scipy_version"] is None


def test_scipy_special_loads_at_the_first_psi_call(tmp_path):
    # the CLI starts without SciPy, and Psi up to |alpha| = 500 is a series;
    # only the quadrature above 500 calls log_ndtr, so the first psi call
    # that reaches past 500 pays the import
    code = (
        "import sys\n"
        "from witsenhausen.cli import main\n"
        "loaded = lambda: sorted(k for k in sys.modules if k.split('.')[0] == 'scipy')\n"
        "print(loaded())\n"
        "rc = main(['psi', '--steps', '3', '--out', sys.argv[1]])\n"
        "print(rc, 'scipy.special' in loaded())\n"
        "rc = main(['psi', '--alpha-max', '1e3', '--steps', '3', '--out', sys.argv[1]])\n"
        "print(rc, 'scipy.special' in loaded())\n"
    )
    stdout = _fresh_python(code, str(tmp_path / "psi.csv"))
    assert stdout.splitlines() == ["[]", "0 False", "0 True"]


def test_quadrature_failure_in_a_grid_exits_3_without_output(
    tmp_path, capsys, monkeypatch
):
    # no integral of the batch can meet an error bound of 1e-300; the first
    # one still unfinished after the round that takes it past its 200
    # bisections is named, and no row is written
    monkeypatch.setattr(numerics, "QUAD_TOL", 1e-300)
    out = tmp_path / "two-point.csv"
    argv = ["curve", "--strategy", "two-point", "--a-min", "1", "--a-max", "3",
            "--steps", "3", "--out", str(out)]
    assert run(argv) == 3
    err = capsys.readouterr().err
    # the parameter is kappa = a/sqrt(N) of the first magnitude
    assert "NonConvergence" in err and "after 228 subdivisions at parameter 10.0" in err
    assert list(tmp_path.iterdir()) == []


def test_quadrature_failure_in_a_coord_margin_names_the_power_and_rho(
    tmp_path, capsys, monkeypatch
):
    # at (1, 1e-4) and P = Q the edge root-find reads Psi above |alpha| = 500,
    # which is still integrated, before any MMSE integral; the message names
    # the strategy, P, rho and the Psi argument
    monkeypatch.setattr(numerics, "QUAD_TOL", 1e-300)
    argv = ["curve", "--strategy", "coord", "--Q", "1", "--N", "1e-4", "--p-min", "1",
            "--p-max", "1.1", "--steps", "2", "--out", str(tmp_path / "c.csv")]
    assert run(argv) == 3
    err = capsys.readouterr().err
    found = re.search(
        r"numerical failure in curve \(NonConvergence\): coord at P=1\.0: "
        r"IC margin at rho=(\S+): Psi at alpha=(\S+): quadrature error",
        err,
    )
    assert found, err
    assert -1.0 < float(found[1]) < 0.0 and float(found[2]) > 500.0
    assert list(tmp_path.iterdir()) == []


def test_quadrature_failure_in_coord_mmse_names_the_power_and_rho(
    tmp_path, capsys, monkeypatch
):
    # below P = Q at (1, 1e-4) every margin near the edge reads Psi from its
    # series, and below p-max 0.3 no two-point power is reachable, so the
    # MMSE integral at rho* is the first quadrature to fail
    rho_star = skewnormal.mmse_coord(0.15, validate_params(1.0, 1e-4))[1]
    monkeypatch.setattr(numerics, "QUAD_TOL", 1e-300)
    argv = ["compare", "--Q", "1", "--N", "1e-4", "--p-max", "0.3", "--steps", "3",
            "--out", str(tmp_path / "c.csv")]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert (
        "numerical failure in compare (NonConvergence): coord at P=0.15: "
        f"MMSE integral at rho={rho_star!r}: quadrature error" in err
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exc", [NonConvergence])
@pytest.mark.parametrize(
    "strategy, module, solver, at",
    [
        ("coord", skewnormal, "find_root", "P=0.05"),
        ("lin-dpc", strategies, "minimize_1d", "P=0.05"),
        ("two-point", strategies, "gauss_weighted_integrals", "P=0.05..0.1"),
    ],
    ids=["coord", "lin-dpc", "two-point"],
)
def test_solver_failure_in_a_curve_names_the_strategy_and_power(
    tmp_path, capsys, monkeypatch, exc, strategy, module, solver, at
):
    def fail(*args, **kwargs):
        raise exc("budget spent")

    monkeypatch.setattr(module, solver, fail)
    argv = ["curve", "--strategy", strategy, "--steps", "3", "--out", str(tmp_path / "c.csv")]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert f"numerical failure in curve ({exc.__name__}): {strategy} at {at}: budget spent" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "--strategy", "linear", "--steps", "3"],
        ["simulate", "--strategy", "linear", "--P", "1", "--n", "1000"],
    ],
    ids=["curve", "simulate"],
)
def test_overflow_is_a_numerical_failure(tmp_path, capsys, monkeypatch, argv):
    # the closed forms evaluate in units of Q, so large variances no longer
    # overflow the linear cost; an OverflowError raised inside it must still
    # be reported as a numerical failure
    def overflow(*args):
        raise OverflowError("Numerical result out of range")

    monkeypatch.setattr(strategies, "_dirty_paper_cost", overflow)
    if argv[0] == "curve":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert f"numerical failure in {argv[0]} (OverflowError)" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "exc, code",
    [(ValueError, 2), (NonConvergence, 3), (EmptyFeasibleSet, 3), (ZeroDivisionError, 3)],
)
def test_exit_code_follows_the_exception_type(tmp_path, capsys, monkeypatch, exc, code):
    def fail(*args):
        raise exc("raised on purpose")

    monkeypatch.setattr(strategies, "curve", fail)
    argv = ["curve", "--strategy", "linear", "--steps", "3", "--out", str(tmp_path / "c.csv")]
    assert run(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("invalid arguments" if code == 2 else "numerical failure")
    assert list(tmp_path.iterdir()) == []


def test_bad_flags_exit_2(tmp_path):
    assert run(["curve", "--strategy", "nope", "--out", "x.csv"]) == 2
    assert run(["curve", "--strategy", "linear", "--Q", "-1",
                "--out", str(tmp_path / "x.csv")]) == 2
    assert run(["curve", "--strategy", "linear", "--p-min", "0.2", "--p-max", "0.1",
                "--out", str(tmp_path / "x.csv")]) == 2
    assert run(["psi", "--alpha-min", "3", "--alpha-max", "-3",
                "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize(
    "argv", [["curve", "--strategy", "linear"], ["compare"], ["psi"]], ids=lambda a: a[0]
)
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_an_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, where):
    # the CSV cannot be opened: exit 2 with one stderr line that names the
    # path, and no output file
    out = tmp_path / "no-such-dir" / "t.csv" if where == "missing-dir" else tmp_path
    assert run([*argv, "--steps", "3", "--out", str(out), "--gnuplot"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid arguments for {argv[0]}: cannot write {out}: ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_top_level_help_lists_the_four_subcommands(capsys):
    assert run(["-h"]) == 0
    out = capsys.readouterr().out
    assert "{curve,compare,simulate,psi}" in out
    for name, help_text in [
        ("curve", "evaluate one strategy on a grid"),
        ("compare", "all strategies on a shared power grid"),
        ("simulate", "Monte-Carlo check of one closed form"),
        ("psi", "tabulate the entropy reduction function"),
    ]:
        assert re.search(rf"^ +{name} +{help_text}$", out, re.MULTILINE), name


def test_subcommand_help_lists_its_options(capsys):
    assert run(["compare", "-h"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: witsenhausen compare ")
    for option in ("--p-min", "--p-max", "--steps", "--Q", "--N", "--out", "--gnuplot"):
        assert option in out
    assert "--strategy" not in out


@pytest.mark.parametrize("argv", [["nosuch"], [], ["--Q", "1", "compare"]])
def test_an_unknown_or_missing_subcommand_exits_2(argv, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("usage: witsenhausen [-h] {curve,compare,simulate,psi}")


def test_help_after_options_returns_0(capsys):
    assert run(["compare", "--Q", "1", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: witsenhausen compare ")


# each subcommand's options with their defaults, as its help gives them
HELP_DEFAULTS = {
    "curve": [
        ("--strategy {linear,gaussian,two-point,dpc,lin-dpc,coord}", "required"),
        ("--p-min P_MIN", "default 0"), ("--p-max P_MAX", "default Q"),
        ("--a-min A_MIN", "default 0"), ("--a-max A_MAX", "default 3 sqrt(Q)"),
        ("--steps STEPS", "default 101"), ("--Q Q", "default 0.1"), ("--N N", "default 0.01"),
        ("--out OUT", "required"), ("--gnuplot", "default off"),
    ],
    "compare": [
        ("--p-min P_MIN", "default 0"), ("--p-max P_MAX", "default Q"),
        ("--steps STEPS", "default 51"), ("--Q Q", "default 0.1"), ("--N N", "default 0.01"),
        ("--out OUT", "required"), ("--gnuplot", "default off"),
    ],
    "simulate": [
        ("--strategy {linear,two-point,coord}", "required"), ("--P P", "no default"),
        ("--a A", "no default"), ("--rho RHO", "no default"), ("--n N", "default 1000000"),
        ("--seed SEED", "default 0"), ("--Q Q", "default 0.1"), ("--N N", "default 0.01"),
    ],
    "psi": [
        ("--alpha-min ALPHA_MIN", "default -10.0"), ("--alpha-max ALPHA_MAX", "default 10.0"),
        ("--steps STEPS", "default 401"), ("--out OUT", "required"), ("--gnuplot", "default off"),
    ],
}


@pytest.mark.parametrize("command", HELP_DEFAULTS)
def test_each_help_line_gives_the_default(capsys, command):
    assert run([command, "-h"]) == 0
    out = capsys.readouterr().out
    # an invocation too long for its column puts its help on the next line
    entries = re.findall(r"^  (\S.*?)(?:  +|\n {24})(\S.*)$", out.split("options:\n")[1], re.MULTILINE)
    assert entries[0] == ("-h, --help", "show this help message and exit")
    assert [(inv, re.search(r"\((.*)\)$", text)[1]) for inv, text in entries[1:]] == HELP_DEFAULTS[command]


@pytest.mark.parametrize(
    "argv, error",
    [
        (["compare", "--seed", "1", "--out", "o.csv"], "unrecognized arguments: --seed"),
        (["psi", "--steps", "1.5", "--out", "o.csv"], "argument --steps: invalid int value: '1.5'"),
        (["curve", "--strategy", "linear"], "the following arguments are required: --out"),
    ],
    ids=["unknown option", "bad int", "missing out"],
)
def test_a_usage_error_prints_the_usage_and_the_reason(capsys, argv, error):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, reason = captured.err.split(f"\nwitsenhausen {argv[0]}: error: ")
    assert usage.startswith(f"usage: witsenhausen {argv[0]} [-h]")
    assert reason == error + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--Q", "inf"],
        ["compare", "--N", "inf"],
        ["curve", "--strategy", "linear", "--N", "inf"],
    ],
)
def test_infinite_variance_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert run(argv + ["--steps", "3", "--out", str(out)]) == 2
    assert "positive and finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


BAD_GRIDS = [
    ["curve", "--strategy", "linear", "--p-max", "inf"],
    ["curve", "--strategy", "dpc", "--p-min", "nan"],
    ["curve", "--strategy", "two-point", "--a-max", "inf"],
    ["compare", "--p-max", "inf"],
    ["psi", "--alpha-max", "inf"],
    ["psi", "--alpha-min=-inf"],
    ["psi", "--alpha-min", "-inf"],
    ["curve", "--strategy", "linear", "--p-min", "-1e-3"],
    ["curve", "--strategy", "linear", "--steps", "1"],
    ["psi", "--steps", "1"],
    # finite bounds whose span alpha-max - alpha-min overflows
    ["psi", "--alpha-min", "-1e308", "--alpha-max", "1e308", "--steps", "5"],
]


@pytest.mark.parametrize("argv", BAD_GRIDS, ids=[" ".join(a) for a in BAD_GRIDS])
def test_bad_grid_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    steps = [] if "--steps" in argv else ["--steps", "3"]
    assert run(argv + steps + ["--out", str(out)]) == 2
    assert "invalid arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_gnuplot_companion(tmp_path):
    out = tmp_path / "lin.csv"
    rc = run(["curve", "--strategy", "linear", "--steps", "5", "--out", str(out),
              "--gnuplot"])
    assert rc == 0
    assert (tmp_path / "lin.csv.gnuplot").exists()


@pytest.mark.parametrize("name", ["it's.csv", "''a'b''.csv"])
def test_gnuplot_companion_quotes_a_path_with_a_quote(tmp_path, name):
    # gnuplot reads '' inside single quotes as one '
    out = tmp_path / name
    assert run(["compare", "--steps", "3", "--out", str(out), "--gnuplot"]) == 0
    plot = (tmp_path / (name + ".gnuplot")).read_text().splitlines()[-1]
    paths = re.findall(r"'((?:[^']|'')*)' using ", plot)
    columns = len(out.read_text().splitlines()[0].split(",")) - 1
    assert [p.replace("''", "'") for p in paths] == [str(out)] * columns


@pytest.mark.parametrize(
    "argv, xlabel, ylabel",
    [
        (["curve", "--strategy", "linear", "--steps", "5"], "P", "S"),
        (["compare", "--steps", "3"], "P", "S"),
        (["psi", "--steps", "5"], "alpha", "psi"),
    ],
    ids=["curve", "compare", "psi"],
)
def test_gnuplot_companion_labels_and_plots_the_csv_columns(tmp_path, argv, xlabel, ylabel):
    out = tmp_path / "out.csv"
    assert run(argv + ["--out", str(out), "--gnuplot"]) == 0
    script = (tmp_path / "out.csv.gnuplot").read_text().splitlines()
    assert f"set xlabel '{xlabel}'" in script and f"set ylabel '{ylabel}'" in script
    header = out.read_text().splitlines()[0].split(",")
    plotted = [int(k) for k in re.findall(r" using 1:(\d+) ", script[-1])]
    # the x column is the first, and the y columns are the values: every
    # strategy of compare, and only S or psi of the others
    assert header[0] == xlabel
    expected = header[1:] if argv[0] == "compare" else [ylabel]
    assert [header[k - 1] for k in plotted] == expected
