"""Regenerate the benchmark's reference outputs or its recorded baseline.

    python3 perfbench/record.py reference
        Writes reference/<workload>/<label>.csv from the current sources.
        Only do this at a commit whose outputs are known to be right.
    python3 perfbench/record.py baseline [--seed N]
        Runs every workload with --trace 0 and --trace 1 for the
        run_seconds of BENCHMARK.json and writes baseline.json.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

from workloads import WORKLOADS, commands

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def write_reference() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from witsenhausen import cli

    for workload in WORKLOADS:
        out_dir = os.path.join(HERE, "reference", workload)
        os.makedirs(out_dir, exist_ok=True)
        for label, argv in commands(workload, 0, out_dir):
            if label is None:
                continue
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited with {code}")
            os.remove(os.path.join(out_dir, label + ".csv.manifest"))
            print(f"wrote {workload}/{label}.csv")


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    details = {}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if rest.startswith("{"):
            details[key] = json.loads(rest)
    return json.loads(lines[-1]), details


def write_baseline(seed: int) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    baseline = {"seed": seed, "run_seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        e2e, details = run_workload(workload, seed, seconds, 0)
        layers, _ = run_workload(workload, seed, seconds, 1)
        baseline["env"] = details["env"]
        baseline["workloads"][workload] = {
            "end_to_end": {k: v["value"] for k, v in e2e["metrics"].items()},
            "wall_s_passes": details["wall_s"],
            "error_rate": e2e["failed"] / e2e["attempted"],
            "correct": e2e["correct"] and layers["correct"],
            "per_layer": {k: v["value"] for k, v in layers["metrics"].items()},
        }
        print(f"measured {workload}")
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("what", choices=("reference", "baseline"))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.what == "reference":
        write_reference()
    else:
        write_baseline(args.seed)
