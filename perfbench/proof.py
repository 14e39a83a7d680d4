"""Check that the benchmark is steady: run it on several seeds per workload.

    python3 perfbench/proof.py OUT.json [--seeds 101-110] [--workloads a,b]

Runs `run.py --trace 0` once per seed and workload, for the run_seconds of
BENCHMARK.json, and writes OUT.json after every run. Per run it keeps the
result line, the raw (unscaled) medians of wall and set-up time, and the
per-pass raw wall times and kernel times. The summary gives, per workload,
the median of each metric over the runs and its spread: the distance between
the first and third quartile as a share of the median. The raw medians get
the same summary, so that the scaled and raw spreads can be compared.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    passes = json.loads(lines[0].partition(" ")[2])
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "raw": {"wall_s": passes["raw_median"], "setup_s": passes["raw_setup_median"]},
        "passes": {k: passes[k] for k in ("raw_wall_s", "raw_setup_s", "kernel_s")},
    }


def summary(runs: list[dict]) -> dict:
    out = {}
    for kind in ("metrics", "raw"):
        for name in runs[0][kind]:
            values = [r[kind][name] for r in runs]
            key = name if kind == "metrics" else f"raw.{name}"
            out[key] = {"median": statistics.median(values), "spread": spread(values)}
    out["all_correct"] = all(r["correct"] and r["failed"] == 0 for r in runs)
    return out


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out")
    ap.add_argument("--seeds", default="101-110", help="FIRST-LAST")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(first, last + 1):
            runs.append(one_run(workload, seed, spec["run_seconds"]))
            m = runs[-1]["metrics"]
            print(workload, seed, " ".join(f"{k}={v:.4g}" for k, v in m.items()), flush=True)
            report["workloads"][workload] = {"runs": runs}
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=1)
        if len(runs) >= 2:
            report["workloads"][workload]["summary"] = summary(runs)
            for name, s in report["workloads"][workload]["summary"].items():
                if name != "all_correct":
                    print(f"{workload} {name}: median {s['median']:.5g} spread {s['spread']:.4f}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
