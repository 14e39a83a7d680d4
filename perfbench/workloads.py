"""The benchmark workloads: command lists for the `witsenhausen` CLI.

Each workload runs its commands in order through `witsenhausen.cli.main` in
one fresh interpreter. A command that writes a CSV has a label, which names
its output file and its reference under `reference/<workload>/`. The
workload seed reaches the program only as `simulate --seed`; every other
command is deterministic. `--threads` is never passed.

Why each workload (grid sizes keep one pass near 2-3 s on a 2-core machine,
so a 28 s run repeats it several times):

- compare-study: the headline study point (Q, N) = (0.1, 0.01). The coord
  optimizer's batched rho grid dominates; 3 of the 13 powers are infeasible
  and still pay the full scan.
- compare-skewed: (Q, N) = (1, 1e-4). Same coord layer, but every positive
  power is feasible, the optimum sits at the rho -> -1 edge, Psi is
  evaluated at large skewness, and lin-dpc returns noise where the answer
  is 0.
- closed-forms: no coord optimizer. Scalar quadrature (Psi, the two-point
  sech integral), the two-point root-finder and the lin-dpc minimizer.
- monte-carlo: the simulation oracle. It calls the quadrature only for the
  two closed-form values it checks against. It streams large arrays, so its
  times are scaled by the memory-bound calibration kernel.
"""
from __future__ import annotations

import math

# Each command is (label or None, argv). A labelled command gets `--out`.
WORKLOADS: dict[str, list[tuple[str | None, list[str]]]] = {
    "compare-study": [
        ("compare", ["compare", "--Q", "0.1", "--N", "0.01", "--steps", "13"]),
    ],
    "compare-skewed": [
        ("compare", ["compare", "--Q", "1", "--N", "1e-4", "--steps", "7"]),
    ],
    "closed-forms": [
        ("psi", ["psi", "--steps", "801"]),
        ("psi-wide", ["psi", "--alpha-min", "-300", "--alpha-max", "300", "--steps", "401"]),
        ("two-point-magnitude", ["curve", "--strategy", "two-point", "--a-min", "0", "--steps", "201"]),
    ]
    + [
        (f"curve-{s}", ["curve", "--strategy", s, "--steps", "201"])
        for s in ("two-point", "lin-dpc", "linear", "gaussian", "dpc")
    ],
    "monte-carlo": [
        (None, ["simulate", "--strategy", "linear", "--P", "0.04", "--n", "5000000"]),
        (None, ["simulate", "--strategy", "two-point", "--a", repr(math.sqrt(0.1)), "--n", "5000000"]),
        (None, ["simulate", "--strategy", "coord", "--P", "0.03", "--rho", "-0.5", "--n", "5000000"]),
    ],
}


# The calibration kernel (child.py) whose speed each workload's times are
# scaled by: cache-resident work for the quadrature and optimizer workloads,
# array streaming for the simulations.
KERNEL = {"compare-study": "cpu", "compare-skewed": "cpu", "closed-forms": "cpu", "monte-carlo": "memory"}


def commands(workload: str, seed: int, out_dir: str) -> list[tuple[str | None, list[str]]]:
    """The argv lists of one pass of `workload`, writing CSVs into out_dir."""
    cmds = []
    for label, argv in WORKLOADS[workload]:
        argv = list(argv)
        if label is not None:
            argv += ["--out", f"{out_dir}/{label}.csv"]
        if argv[0] == "simulate":
            argv += ["--seed", str(seed % 2**63)]  # the simulator needs a key >= 0
        cmds.append((label, argv))
    return cmds
