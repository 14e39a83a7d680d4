#!/usr/bin/env python3
"""Cross-validate the closed forms against Monte-Carlo at (Q, N) = (0.1, 0.01).

Runs `witsenhausen simulate` at ten operating points of the linear, two-point
and hybrid (sign side information) schemes; each run prints the power and the
estimation cost, closed form against empirical, with 4-standard-error
verdicts. Exits nonzero if any run fails.
"""
import argparse
import math
import sys

from witsenhausen.cli import main as cli

POINTS = [
    *(["--strategy", "linear", "--P", P] for P in ("0.01", "0.04", "0.09")),
    *(["--strategy", "two-point", "--a", repr(a)]
      for a in (0.1, math.sqrt(2 * 0.1 / math.pi), math.sqrt(0.1), 0.4)),
    *(["--strategy", "coord", "--P", P, "--rho", rho]
      for P, rho in (("0.03", "-0.5"), ("0.05", "-0.7"), ("0.09", "-0.85"))),
]

if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    run = ["--Q", "0.1", "--N", "0.01", "--n", str(args.n), "--seed", str(args.seed)]
    sys.exit(max(cli(["simulate", *point, *run]) for point in POINTS))
