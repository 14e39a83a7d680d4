"""End-to-end benchmark of the witsenhausen CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs the workload's command list (see workloads.py) through
`witsenhausen.cli.main` in a fresh interpreter, because a CLI user pays the
import on every command and a cache kept across passes must not count as a
gain. Passes repeat, one after another, until about S seconds are used.
Every output is checked: a command fails on a nonzero exit code, a CSV that
does not match its reference, a CSV whose bytes differ from the first pass
of this run, or a simulation verdict other than PASS.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, as medians over
the passes: wall_s (the time spent in `cli.main` calls), setup_s
(interpreter start until `import witsenhausen.cli` returns) and peak_rss_mb.
--trace 1 runs traced passes only and reports their per-layer metrics (see
tracer.py); trace.overhead_s estimates what the wrappers cost a pass.

Times are scaled to a nominal machine speed. On a shared machine the speed
of one core changes by up to 1.6x in phases that last tens of seconds, which
no number of repetitions averages out. Each pass therefore also times a fixed
calibration kernel that does not touch the program (child.py), before the
first command and after every command. Each command's time is multiplied by
CAL_NOMINAL_S / (mean of the kernel times at its two ends), and set-up time
by CAL_NOMINAL_S / (median kernel time of the pass). Each workload names
its kernel in workloads.KERNEL: cache-resident work, or array streaming for
the simulations, which a slow phase of the machine slows less. A change to the
program cannot move the kernel, so the scaling removes the machine's phases
and keeps the program's gains and losses. The raw wall times, the kernel
times and the raw medians are printed too; perfbench/proofs/ holds ten-seed
runs that compare the spread of raw and scaled medians.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import reference
import tracer as tracing
from workloads import KERNEL, WORKLOADS, commands

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
REFERENCE = os.path.join(HERE, "reference")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# A run must end within 180 s; no pass may start a child that could outlive this.
DEADLINE_S = 150.0
# Calibration kernel times that define the nominal speed: their typical times
# on a 2-vCPU Xeon at 2.1 GHz, NumPy 2.4, when the host is quiet.
CAL_NOMINAL_S = {"cpu": 0.037, "memory": 0.052}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update({var: "1" for var in THREAD_VARS})
    # the CLI runs `git describe`; keep git from searching above the checkout
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    return env


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_child(
    argvs: list[list[str]], trace: bool, kernel: str, pass_dir: str, timeout: float
) -> dict | None:
    """Run one pass in a fresh interpreter; None when it did not complete."""
    pass_dir = os.path.abspath(pass_dir)
    os.makedirs(pass_dir, exist_ok=True)
    spec_path = os.path.join(pass_dir, "spec.json")
    result_path = os.path.join(pass_dir, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"commands": argvs, "trace": trace, "kernel": kernel, "src": SRC, "result": result_path},
            fh,
        )
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), spec_path, repr(spawned)],
            cwd=pass_dir, env=child_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(result_path):
        print(f"pass exited with code {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


class OutputCheck:
    """Counts the failed commands of each pass of one workload."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.first: dict[str, bytes] = {}

    def expected(self, label: str) -> str:
        with open(os.path.join(REFERENCE, self.workload, label + ".csv"), encoding="utf-8") as fh:
            return fh.read()

    def failures(self, cmds, result: dict | None, out_dir: str) -> int:
        if result is None:
            return len(cmds)
        failed = 0
        for (label, argv), code, stdout in zip(cmds, result["codes"], result["stdouts"]):
            problems = self.problems(label, argv, code, stdout, out_dir)
            if problems:
                failed += 1
                print(f"FAILED {' '.join(argv)}: {'; '.join(problems[:5])}", file=sys.stderr)
        return failed

    def problems(self, label, argv, code, stdout, out_dir) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        if argv[0] == "simulate":
            return [] if reference.simulate_passed(stdout) else ["verdict is not PASS"]
        try:
            with open(os.path.join(out_dir, label + ".csv"), "rb") as fh:
                data = fh.read()
            problems = reference.check_csv(self.expected(label), data.decode("utf-8"))
        except (OSError, ValueError, TypeError) as exc:  # missing, short or non-numeric
            return [f"unreadable output: {exc!r}"]
        if data != self.first.setdefault(label, data):
            problems.append("CSV bytes differ from the first pass")
        return problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def declared_units() -> dict[str, dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, run_dir: str) -> dict:
    check = OutputCheck(workload)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    if run_child([], False, KERNEL[workload], os.path.join(run_dir, "warmup"), DEADLINE_S) is None:
        raise RuntimeError("the package does not import")

    passes = []
    attempted = failed = rounds = 0
    loop_start = time.monotonic()
    while True:
        out_dir = os.path.join(run_dir, f"pass{rounds}")
        cmds = commands(workload, seed, out_dir)
        result = run_child(
            [argv for _, argv in cmds], trace, KERNEL[workload], out_dir, deadline - time.monotonic()
        )
        attempted += len(cmds)
        failed += check.failures(cmds, result, out_dir)
        if result is not None:
            passes.append(result)
        shutil.rmtree(out_dir, ignore_errors=True)
        rounds += 1
        elapsed = time.monotonic() - loop_start
        # stop before a pass that would overrun the measuring time
        if elapsed * (rounds + 1) / rounds > seconds or time.monotonic() > deadline:
            break
    if not passes:
        raise RuntimeError("no pass completed")
    return {"passes": passes, "attempted": attempted, "failed": failed}


def kernel_times(result: dict) -> list[float]:
    """The median kernel time at each boundary: before the first command,
    then after each command."""
    return [statistics.median(times) for times in result["calibration_s"]]


def speed_scale(result: dict) -> float:
    """Factor that converts this pass's times to the nominal machine speed."""
    return CAL_NOMINAL_S[result["kernel"]] / statistics.median(kernel_times(result))


def scaled_wall(result: dict) -> float:
    """Sum of the command times, each scaled by the kernel times at its ends."""
    k, nominal = kernel_times(result), CAL_NOMINAL_S[result["kernel"]]
    return sum(t * 2 * nominal / (k[i] + k[i + 1]) for i, t in enumerate(result["command_s"]))


def end_to_end(passes: list[dict]) -> dict[str, float]:
    walls = [scaled_wall(r) for r in passes]
    q1, median, q3 = quartiles(walls)
    raw_walls = [r["wall_s"] for r in passes]
    raw_q1, raw_median, raw_q3 = quartiles(raw_walls)
    raw_setups = [r["setup_s"] for r in passes]
    print("wall_s " + json.dumps({
        "median": median, "q1": q1, "q3": q3, "passes": len(walls),
        "raw_median": raw_median, "raw_q1": raw_q1, "raw_q3": raw_q3,
        "raw_setup_median": statistics.median(raw_setups),
        "raw_wall_s": raw_walls, "raw_setup_s": raw_setups,
        "kernel_s": [statistics.median(kernel_times(r)) for r in passes],
    }))
    return {
        "wall_s": median,
        "setup_s": statistics.median(r["setup_s"] * speed_scale(r) for r in passes),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }


def per_layer(traced: list[dict], workload: str) -> tuple[dict, bool]:
    """Median per-layer metrics of the traced passes; False if counts differ."""
    runs = [
        tracing.layer_metrics(r["spans"], r["counters"], speed_scale(r), r["wrapper_costs"])
        for r in traced
    ]
    for r in traced:
        for name in r["missing"]:
            print(f"warning: traced function {name} not found", file=sys.stderr)
    repeatable = all(tracing.counts_only(m) == tracing.counts_only(runs[0]) for m in runs)
    if not repeatable:
        print("work counts differ between traced passes", file=sys.stderr)
    metrics = {name: statistics.median(m[name] for m in runs) for name in runs[0]}
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"{workload}.spans.json"), "w", encoding="utf-8") as fh:
        json.dump({"spans": traced[-1]["spans"], "counters": traced[-1]["counters"]}, fh)
    return metrics, repeatable


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the witsenhausen CLI.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "witsenhausen", "cli.py")):
        print(f"no witsenhausen sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_units()
    run_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    except RuntimeError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = run["failed"] == 0
    if args.trace:
        metrics, repeatable = per_layer(run["passes"], args.workload)
        correct = correct and repeatable
        kind = "per_layer"
    else:
        metrics = end_to_end(run["passes"])
        kind = "end_to_end"
    if set(metrics) != set(units[kind]):
        print(f"computed metrics do not match BENCHMARK.json {kind}", file=sys.stderr)
        return 1
    print("env " + json.dumps({**run["passes"][0]["versions"], "nproc": os.cpu_count(), "git": git_revision()}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units[kind].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
