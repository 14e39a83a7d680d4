import csv
import json
import math
import os
import shutil
import subprocess

import numpy as np
import pytest

import witsenhausen
from witsenhausen import numerics, skewnormal, strategies
from witsenhausen.cli import main


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage failures
        return int(exc.code)


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
    out = tmp_path / "lin.csv"
    rc = run(["curve", "--strategy", "linear", "--steps", "11", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((tmp_path / "lin.csv.manifest").read_text())
    for key in ("command", "argv", "Q", "N", "tolerances", "git_describe",
                "timestamp", "output"):
        assert key in manifest
    assert manifest["command"] == "curve"
    # no command that writes a manifest draws random numbers
    assert "seed" not in manifest


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
    assert run(["curve", "--strategy", "linear", "--steps", "3", "--out", "lin.csv"]) == 0
    recorded = json.loads((other / "lin.csv.manifest").read_text())["git_describe"]
    package = _git("describe", "--always", "--dirty",
                   cwd=os.path.dirname(witsenhausen.__file__))
    assert recorded == (package.stdout.strip() if package.returncode == 0 else "unknown")
    assert recorded != _git("describe", "--always", cwd=other).stdout.strip()


def test_manifest_records_the_optimizer_tolerances(tmp_path, monkeypatch):
    used = set()

    def recording(f, lo, hi, tol):
        used.add(tol)
        return numerics.minimize_1d(f, lo, hi, tol)

    monkeypatch.setattr(skewnormal, "minimize_1d", recording)
    monkeypatch.setattr(strategies, "minimize_1d", recording)
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--steps", "3", "--out", str(out)]) == 0
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


def test_simulate_linear_pass(capsys):
    rc = run(
        ["simulate", "--strategy", "linear", "--P", "0.04", "--n", "200000",
         "--seed", "3"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out


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


def test_simulate_refuses_tiny_sample_count():
    assert run(["simulate", "--strategy", "linear", "--P", "0.04", "--n", "10"]) == 2


def test_simulate_requires_policy_arguments():
    assert run(["simulate", "--strategy", "linear"]) == 2
    assert run(["simulate", "--strategy", "two-point"]) == 2
    assert run(["simulate", "--strategy", "coord", "--P", "0.03"]) == 2


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
]


@pytest.mark.parametrize("argv", UNREAD_OPTIONS, ids=[" ".join(a) for a in UNREAD_OPTIONS])
def test_options_a_command_does_not_read_are_rejected(tmp_path, argv):
    assert run(argv + ["--out", str(tmp_path / "out.csv")]) == 2
    assert list(tmp_path.iterdir()) == []


NON_FINITE = [
    ["simulate", "--strategy", "linear", "--P", "nan"],
    ["simulate", "--strategy", "linear", "--P", "inf"],
    ["simulate", "--strategy", "two-point", "--a", "nan"],
    ["simulate", "--strategy", "two-point", "--a", "inf"],
    ["simulate", "--strategy", "coord", "--P", "0.03", "--rho", "nan"],
    ["simulate", "--strategy", "linear", "--P", "0.04", "--tol", "nan"],
    ["psi", "--tol", "nan"],
    ["psi", "--tol", "inf"],
    ["curve", "--strategy", "two-point", "--tol", "nan"],
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


def test_quadrature_failure_in_a_grid_exits_3_without_output(tmp_path, capsys):
    # no integral of the batch can meet a tolerance of 1e-300; the first one
    # to spend its budget is named, and no row is written
    out = tmp_path / "psi.csv"
    argv = ["psi", "--alpha-min", "1", "--alpha-max", "3", "--steps", "3",
            "--tol", "1e-300", "--out", str(out)]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert "NonConvergence" in err and "after 200 subdivisions at parameter 1.0" in err
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

