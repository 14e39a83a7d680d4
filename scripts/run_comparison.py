#!/usr/bin/env python3
"""Reproduce the full strategy comparison at the study point (Q, N) = (0.1, 0.01).

Writes into results/ (created if missing):
  comparison.csv        one estimation-cost column per strategy on a shared power grid
  two_point_locus.csv   the (P, S) locus of the two-point family over its magnitude
  psi.csv               the entropy reduction function on [-10, 10]

Each CSV gets a .manifest with the exact command line for byte-identical reruns.
Plot e.g. with: gnuplot results/comparison.csv.gnuplot
"""
import argparse
import pathlib
import sys

from witsenhausen.cli import main as cli


def run(argv):
    rc = cli(argv)
    if rc != 0:
        sys.exit(rc)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--Q", type=float, default=0.1)
    ap.add_argument("--N", type=float, default=0.01)
    ap.add_argument("--steps", type=int, default=51)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    qn = ["--Q", str(args.Q), "--N", str(args.N)]

    run(["compare", *qn, "--steps", str(args.steps),
         "--out", str(outdir / "comparison.csv"), "--gnuplot"])
    run(["curve", "--strategy", "two-point", *qn,
         "--a-min", "0", "--a-max", str(3 * args.Q**0.5), "--steps", "201",
         "--out", str(outdir / "two_point_locus.csv")])
    run(["psi", "--alpha-min", "-10", "--alpha-max", "10", "--steps", "201",
         "--out", str(outdir / "psi.csv")])
    print(f"wrote {outdir}/comparison.csv, two_point_locus.csv, psi.csv")
