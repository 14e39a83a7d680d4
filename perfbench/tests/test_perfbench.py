"""Self-tests of the benchmark harness.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""
import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def read_reference(workload, label):
    with open(os.path.join(BENCH, "reference", workload, label + ".csv"), encoding="utf-8") as fh:
        return fh.read()


def edit_column(text, column, edit):
    """Apply edit(row_index, cell) -> cell to one column of a CSV text."""
    lines = text.splitlines()
    header = lines[0].split(",")
    j = header.index(column)
    out = [lines[0]]
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        cells[j] = edit(i, cells[j])
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


# --- self time ---------------------------------------------------------------


def test_self_time_subtracts_union_of_children():
    spans = [
        (0, None, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 4.0),
        (2, 0, "b", 3.0, 6.0),  # overlaps a: children cover [1, 6]
        (3, 1, "leaf", 2.0, 3.0),
        (4, 0, "late", 9.0, 12.0),  # runs past its parent: only [9, 10] counts
    ]
    selfs = tracer.self_times(spans)
    assert selfs == pytest.approx({0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0})


def test_name_times_counts_recursion_once():
    spans = [
        (0, None, "f", 0.0, 10.0),
        (1, 0, "g", 1.0, 3.0),
        (2, 1, "f", 1.5, 2.5),
    ]
    times = tracer.name_times(spans)
    assert times["f"]["s"] == pytest.approx(10.0)
    assert times["f"]["self_s"] == pytest.approx(8.0 + 1.0)
    assert times["g"]["self_s"] == pytest.approx(1.0)


def test_overhead_estimate_is_positive_and_counts_spans_and_hooks():
    span_cost, hook_cost = tracer.wrapper_costs(calls=2000, repeats=3)
    assert span_cost > 0 and hook_cost > 0
    spans = [(0, None, "cli.main", 0.0, 1.0), (1, 0, "numerics.find_root", 0.2, 0.4)]
    m = tracer.layer_metrics(spans, {"hook_calls": 10}, 2.0, (1e-6, 1e-7))
    assert m["trace.overhead_s"] == pytest.approx(2.0 * (2 * 1e-6 + 10 * 1e-7))


def test_layer_metrics_ratios_and_rates():
    spans = [
        (0, None, "cli.main", 0.0, 5.0),
        (1, 0, "skewnormal.mmse_coord", 0.0, 2.0),
        (2, 1, "numerics.minimize_1d", 0.5, 1.5),
        (3, 0, "skewnormal.mmse_coord", 2.0, 3.0),
        (4, 0, "montecarlo.simulate_linear", 3.0, 4.0),
    ]
    counters = {
        "skewnormal.mmse_coord.calls": 2,
        "skewnormal.mmse_coord.raised": 1,
        "numerics.minimize_1d.calls": 1,
        "numerics.minimize_1d.evals": 4,
        "numerics.minimize_1d.finite": 3,
        "montecarlo.simulate_linear.calls": 1,
        "montecarlo.simulate_linear.samples": 1000,
    }
    m = tracer.layer_metrics(spans, counters)
    assert m["skewnormal.mmse_coord.feasible_ratio"] == 0.5
    assert m["skewnormal.mmse_coord.s"] == pytest.approx(3.0)
    assert m["skewnormal.mmse_coord.self_s"] == pytest.approx(2.0)
    assert m["numerics.minimize_1d.finite_ratio"] == 0.75
    assert m["montecarlo.linear.samples_per_s"] == pytest.approx(1000.0)
    assert m["montecarlo.coord.samples_per_s"] == 0.0
    assert m["cli.self_s"] == pytest.approx(1.0)


def test_benchmark_json_declares_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"] for m in spec["per_layer"]} == set(tracer.layer_metrics([], {}))
    one_pass = {
        "wall_s": 1.0, "command_s": [1.0], "setup_s": 1.0, "peak_rss_mb": 1.0,
        "kernel": "cpu", "calibration_s": [[0.04], [0.04]],
    }
    assert {m["name"] for m in spec["end_to_end"]} == set(run.end_to_end([one_pass]))


def test_each_command_is_scaled_by_the_kernel_at_its_ends():
    nominal = run.CAL_NOMINAL_S["cpu"]
    result = {
        "command_s": [1.0, 2.0], "kernel": "cpu",
        # boundary medians: nominal, 2 x nominal, 2 x nominal
        "calibration_s": [[nominal], [2 * nominal, 9.0, 0.0], [2 * nominal]],
    }
    assert run.scaled_wall(result) == pytest.approx(1.0 / 1.5 + 2.0 / 2.0)
    assert run.speed_scale(result) == pytest.approx(0.5)


# --- reference check ---------------------------------------------------------


def test_reference_matches_itself():
    text = read_reference("compare-study", "compare")
    assert reference.check_csv(text, text) == []


def test_rejects_coord_scaled_by_1e_5():
    text = read_reference("compare-study", "compare")
    scaled = edit_column(text, "coord", lambda i, c: repr(float(c) * (1 + 1e-5)) if c else c)
    assert reference.check_csv(text, scaled)


def test_accepts_coord_within_1e_8():
    text = read_reference("compare-study", "compare")
    nudged = edit_column(text, "coord", lambda i, c: repr(float(c) * (1 + 1e-8)) if c else c)
    assert reference.check_csv(text, nudged) == []


def test_rejects_other_columns_scaled_by_1e_7():
    text = read_reference("closed-forms", "psi")
    scaled = edit_column(text, "psi", lambda i, c: repr(float(c) * (1 + 1e-7)))
    assert reference.check_csv(text, scaled)


def test_rejects_flipped_feasible_flag():
    text = read_reference("closed-forms", "curve-two-point")
    flipped = edit_column(text, "feasible", lambda i, c: "true" if i == 0 else c)
    assert text != flipped
    assert reference.check_csv(text, flipped)


def test_rejects_infeasible_cell_filled_in():
    text = read_reference("compare-study", "compare")
    filled = edit_column(text, "coord", lambda i, c: c or "0.01")
    assert reference.check_csv(text, filled)


def test_accepts_added_note_column():
    text = read_reference("closed-forms", "curve-two-point")
    lines = text.splitlines()
    noted = [lines[0] + ",note"] + [
        line + (",below two-point minimum power" if line.endswith("false") else ",")
        for line in lines[1:]
    ]
    assert reference.check_csv(text, "\n".join(noted) + "\n") == []


def test_zero_noise_may_become_exact_zero_but_not_aux_checked():
    text = read_reference("compare-study", "compare")
    zeroed = edit_column(text, "lin_dpc", lambda i, c: "0.0" if float(c) < 1e-15 else c)
    assert text != zeroed
    assert reference.check_csv(text, zeroed) == []
    curve = read_reference("closed-forms", "curve-lin-dpc")
    moved = edit_column(curve, "aux1", lambda i, c: "0.5")
    assert reference.check_csv(curve, moved) == []


def test_rejects_missing_rows_and_columns():
    text = read_reference("compare-study", "compare")
    assert reference.check_csv(text, "\n".join(text.splitlines()[:-1]) + "\n")
    assert reference.check_csv(text, text.replace(",dpc,", ",xdpc,", 1))


def test_simulate_verdict():
    assert reference.simulate_passed("simulate linear\n  power ... PASS\nPASS\n")
    assert not reference.simulate_passed("simulate linear\n  mmse ... FAIL\nFAIL\n")
    assert not reference.simulate_passed("")


# --- failure counting --------------------------------------------------------


def test_perturbed_output_is_counted_as_failure(tmp_path):
    check = run.OutputCheck("compare-study")
    cmds = [("compare", ["compare", "--steps", "13"])]
    ok = {"codes": [0], "stdouts": [""]}
    text = read_reference("compare-study", "compare")
    out = tmp_path / "compare.csv"

    out.write_text(text, encoding="utf-8")
    assert check.failures(cmds, ok, str(tmp_path)) == 0
    out.write_text(
        edit_column(text, "coord", lambda i, c: repr(float(c) * (1 + 1e-5)) if c else c),
        encoding="utf-8",
    )
    assert check.failures(cmds, ok, str(tmp_path)) == 1
    # within tolerance of the reference, but not the bytes of the first pass
    out.write_text(
        edit_column(text, "coord", lambda i, c: repr(float(c) * (1 + 1e-9)) if c else c),
        encoding="utf-8",
    )
    assert check.failures(cmds, ok, str(tmp_path)) == 1
    assert check.failures(cmds, {"codes": [3], "stdouts": [""]}, str(tmp_path)) == 1
    assert check.failures(cmds, None, str(tmp_path)) == 1


def test_missing_or_malformed_csv_is_counted_as_failure(tmp_path):
    check = run.OutputCheck("compare-study")
    cmds = [("compare", ["compare", "--steps", "13"])]
    ok = {"codes": [0], "stdouts": [""]}
    assert check.failures(cmds, ok, str(tmp_path)) == 1  # no CSV written
    text = read_reference("compare-study", "compare")
    out = tmp_path / "compare.csv"
    lines = text.splitlines()
    out.write_text("\n".join(lines[:2] + [lines[2].rsplit(",", 2)[0]] + lines[3:]) + "\n")
    assert check.failures(cmds, ok, str(tmp_path)) == 1  # a short row
    out.write_text(edit_column(text, "dpc", lambda i, c: "n/a"), encoding="utf-8")
    assert check.failures(cmds, ok, str(tmp_path)) == 1  # a non-numeric cell
    out.write_bytes(b"\xff\xfe" + text.encode())
    assert check.failures(cmds, ok, str(tmp_path)) == 1  # not UTF-8


def test_simulation_fail_and_exit_codes_are_failures(tmp_path):
    check = run.OutputCheck("monte-carlo")
    cmds = [(None, ["simulate", "--strategy", "linear"])] * 3
    result = {"codes": [0, 0, 1], "stdouts": ["PASS\n", "FAIL\n", "FAIL\n"]}
    assert check.failures(cmds, result, str(tmp_path)) == 2


# --- wrapper installation ----------------------------------------------------


@pytest.fixture
def restore_package():
    import witsenhausen.cli  # noqa: F401 - loads every module of the package

    saved = {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "witsenhausen" or name.startswith("witsenhausen.")
    }
    yield
    for name, namespace in saved.items():
        vars(sys.modules[name]).update(namespace)


def test_installer_reports_missing_name(restore_package):
    t = tracer.Tracer()
    targets = (
        ("numerics", "no_such_function", None),
        ("no_such_module", "main", None),
        ("numerics", "find_root", tracer.count_evals),
    )
    assert tracer.install(t, targets=targets) == [
        "numerics.no_such_function",
        "no_such_module.main",
    ]


def test_installer_wraps_every_binding(restore_package):
    from witsenhausen import numerics, skewnormal, strategies
    from witsenhausen.core import validate_params

    t = tracer.Tracer()
    assert tracer.install(t) == []
    assert skewnormal.gauss_weighted_integral is numerics.gauss_weighted_integral
    assert strategies.gauss_weighted_integral is numerics.gauss_weighted_integral
    assert hasattr(numerics.gauss_weighted_integral, "__wrapped__")

    strategies.two_point_costs(strategies.TwoPointPolicy(0.3), validate_params(0.1, 0.01))
    names = [span[2] for span in t.spans]
    assert names == ["numerics.gauss_weighted_integral", "strategies.two_point_costs"]
    assert t.spans[0][1] == t.spans[1][0]  # the quadrature's parent is the caller
    assert t.counters["numerics.gauss_weighted_integral.nodes"] > 0


# --- repeatability of a traced run -------------------------------------------

SMALL = [
    ["compare", "--Q", "0.1", "--N", "0.01", "--steps", "3", "--out", "c.csv"],
    ["psi", "--steps", "5", "--out", "p.csv"],
    ["curve", "--strategy", "two-point", "--a-min", "0", "--steps", "5", "--out", "t.csv"],
    ["simulate", "--strategy", "linear", "--P", "0.04", "--n", "10000", "--seed", "7"],
]


def test_two_traced_runs_count_the_same_work(tmp_path):
    counts = []
    for i in range(2):
        result = run.run_child(SMALL, True, "cpu", str(tmp_path / f"pass{i}"), 120.0)
        assert result is not None
        assert result["codes"] == [0, 0, 0, 0]
        assert result["missing"] == []
        metrics = tracer.layer_metrics(result["spans"], result["counters"])
        counts.append(tracer.counts_only(metrics))
    assert counts[0] == counts[1]
    assert counts[0]["skewnormal.mmse_coord.calls"] == 3
    assert counts[0]["numerics.quad.nodes"] > 0
    assert counts[0]["numerics.minimize_1d.evals"] > 0
    assert counts[0]["numerics.find_root.evals"] > 0
    shutil.rmtree(tmp_path, ignore_errors=True)
