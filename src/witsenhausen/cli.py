"""Command-line front end.

Subcommands: ``curve`` (one strategy on a power or magnitude grid),
``compare`` (all strategies on a shared power grid), ``simulate`` (Monte-Carlo
against the closed forms with a 4-standard-error verdict) and ``psi`` (the
entropy reduction function on a grid).

Outputs are CSV (UTF-8, LF, header row, '.' decimals, full-precision
round-trippable numbers) plus a JSON run manifest next to each CSV. Plotting
is left to external tools; --gnuplot writes a companion script.

Exit codes: 0 ok, 1 simulation verdict FAIL, 2 usage error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import montecarlo, skewnormal, strategies
from .core import (
    CurvePoint,
    NonPositiveVariance,
    WitsenhausenError,
    validate_params,
)
from .numerics import QuadratureConfig

__all__ = ["main", "RunManifest"]


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record serialized alongside every CSV output."""

    command: str
    argv: list[str]
    Q: float | None
    N: float | None
    tolerances: dict
    git_describe: str
    timestamp: str
    output: str

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _git_describe() -> str:
    """`git describe` of the checkout that holds this package, not of the CWD."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _fmt(value) -> str:
    """Full-precision, round-trippable decimal text; empty for missing."""
    if value is None:
        return ""
    return repr(float(value))


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _manifest(args, argv: list[str], cfg: QuadratureConfig, out: str) -> None:
    RunManifest(
        command=args.command,
        argv=argv,
        Q=getattr(args, "Q", None),
        N=getattr(args, "N", None),
        tolerances={
            "quadrature_abs_tol": cfg.abs_tol,
            "quadrature_rel_tol": cfg.rel_tol,
            "coord_peak_rho_xtol": skewnormal.PEAK_RHO_TOL,
            "coord_edge_rho_xtol": skewnormal.EDGE_RHO_TOL,
            "lin_dpc_rho_xtol": strategies.LIN_DPC_RHO_TOL,
        },
        git_describe=_git_describe(),
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        output=out,
    ).write(out + ".manifest")


def _gnuplot_script(out: str, columns: list[str]) -> None:
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 'P'",
        "set ylabel 'S'",
        "plot " + ", ".join(f"'{out}' using 1:{i + 2} with lines" for i in range(len(columns))),
    ]
    with open(out + ".gnuplot", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _quad_cfg(args) -> QuadratureConfig:
    tol = getattr(args, "tol", None)
    if tol is None:
        return QuadratureConfig()
    return QuadratureConfig(abs_tol=tol, rel_tol=tol)


def _grid(
    lo: float, hi: float, steps: int, name: str, nonnegative: bool = True
) -> np.ndarray:
    """`steps` evenly spaced values from lo to hi; a bad grid is a usage error.

    Checks --steps and the bounds --<name>-min/--<name>-max: both finite,
    lo < hi and, when `nonnegative`, lo >= 0.
    """
    if steps < 2:
        raise ValueError("--steps must be >= 2")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"--{name}-min and --{name}-max must be finite")
    if not (0.0 if nonnegative else -math.inf) <= lo < hi:
        floor = "0 <= " if nonnegative else ""
        raise ValueError(f"need {floor}{name}-min < {name}-max")
    return np.linspace(lo, hi, steps)


def _power_grid(args, params) -> np.ndarray:
    p_max = args.p_max if args.p_max is not None else params.Q
    return _grid(args.p_min, p_max, args.steps, "p")


def _point_row(pt: CurvePoint, strategy: str) -> list[str]:
    return [
        _fmt(pt.P),
        _fmt(pt.S),
        strategy,
        _fmt(pt.aux1),
        _fmt(pt.aux2),
        "true" if pt.feasible else "false",
    ]


_CURVE_HEADER = ["P", "S", "strategy", "aux1", "aux2", "feasible"]


def cmd_curve(args, argv: list[str]) -> int:
    params = validate_params(args.Q, args.N)
    cfg = _quad_cfg(args)
    sweep_a = args.a_min is not None or args.a_max is not None
    if sweep_a and args.strategy != "two-point":
        print("--a-min/--a-max only apply to the two-point strategy", file=sys.stderr)
        return 2

    if sweep_a:
        a_min = args.a_min if args.a_min is not None else 0.0
        a_max = args.a_max if args.a_max is not None else 3.0 * math.sqrt(params.Q)
        grid = _grid(a_min, a_max, args.steps, "a")
        powers, costs = strategies.two_point_cost_grid(grid, params, cfg)
        rows = [
            [_fmt(p), _fmt(s), "two-point", _fmt(a), "", "true"]
            for p, s, a in zip(powers, costs, grid)
        ]
    else:
        c = strategies.curve(args.strategy, params, _power_grid(args, params), cfg)
        rows = [_point_row(pt, args.strategy) for pt in c.points]

    _write_csv(args.out, _CURVE_HEADER, rows)
    _manifest(args, argv, cfg, args.out)
    if args.gnuplot:
        _gnuplot_script(args.out, ["S"])
    return 0


_COMPARE_COLUMNS = [s.replace("-", "_") for s in strategies.STRATEGIES]


def cmd_compare(args, argv: list[str]) -> int:
    params = validate_params(args.Q, args.N)
    cfg = _quad_cfg(args)
    grid = _power_grid(args, params)
    curves = [strategies.curve(s, params, grid, cfg) for s in strategies.STRATEGIES]
    rows = [
        [_fmt(pts[0].P)] + [_fmt(pt.S) if pt.feasible else "" for pt in pts]
        for pts in zip(*(c.points for c in curves))
    ]
    _write_csv(args.out, ["P"] + _COMPARE_COLUMNS, rows)
    _manifest(args, argv, cfg, args.out)
    if args.gnuplot:
        _gnuplot_script(args.out, _COMPARE_COLUMNS)
    return 0


def cmd_simulate(args, argv: list[str]) -> int:
    params = validate_params(args.Q, args.N)
    cfg = _quad_cfg(args)
    try:
        sim_cfg = montecarlo.SimConfig(n_samples=args.n, seed=args.seed)
    except ValueError as exc:
        print(f"invalid simulation config: {exc}", file=sys.stderr)
        return 2

    if args.strategy == "linear":
        if args.P is None:
            print("linear simulation needs --P", file=sys.stderr)
            return 2
        policy = strategies.linear_policy_for_power(args.P, params)
        closed_p = args.P
        closed_s = strategies.mmse_linear(args.P, params)
        emp = montecarlo.simulate_linear(policy, params, sim_cfg)
        label = f"linear P={args.P}"
    elif args.strategy == "two-point":
        if args.a is None:
            print("two-point simulation needs --a", file=sys.stderr)
            return 2
        policy = strategies.TwoPointPolicy(args.a)
        cost = strategies.two_point_costs(policy, params, cfg)
        closed_p, closed_s = cost.P, cost.S
        emp = montecarlo.simulate_two_point(policy, params, sim_cfg)
        label = f"two-point a={args.a}"
    elif args.strategy == "coord":
        if args.P is None or args.rho is None:
            print("coord simulation needs --P and --rho", file=sys.stderr)
            return 2
        cp = skewnormal.CoordParams(args.P, args.rho, params.Q, params.N)
        closed_p = args.P
        closed_s = skewnormal.coord_mmse_at_rho(cp, cfg)
        emp = montecarlo.simulate_hybrid_conditional(cp, params, sim_cfg)
        label = f"coord P={args.P} rho={args.rho}"
    else:
        print(f"unknown simulation strategy {args.strategy!r}", file=sys.stderr)
        return 2

    ok = True
    print(f"simulate {label}  n={args.n}  seed={args.seed}")
    for name, closed, mean, stderr in (
        ("power", closed_p, emp.power_mean, emp.power_stderr),
        ("mmse", closed_s, emp.mmse_mean, emp.mmse_stderr),
    ):
        dev = abs(mean - closed)
        bound = 4.0 * stderr
        verdict = "PASS" if dev <= bound else "FAIL"
        ok = ok and dev <= bound
        print(
            f"  {name:5s} closed={closed:.10g} empirical={mean:.10g} "
            f"stderr={stderr:.3g} |diff|={dev:.3g} (4*stderr={bound:.3g}) {verdict}"
        )
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_psi(args, argv: list[str]) -> int:
    cfg = _quad_cfg(args)
    grid = _grid(args.alpha_min, args.alpha_max, args.steps, "alpha", nonnegative=False)
    psi = skewnormal.entropy_reduction(grid, cfg)
    rows = [[_fmt(a), _fmt(v)] for a, v in zip(grid, psi)]
    _write_csv(args.out, ["alpha", "psi"], rows)
    _manifest(args, argv, cfg, args.out)
    if args.gnuplot:
        _gnuplot_script(args.out, ["psi"])
    return 0


def _add_common(
    p: argparse.ArgumentParser, variances: bool = True, output: bool = True
) -> None:
    if variances:
        p.add_argument("--Q", type=float, default=0.1, help="state variance (default 0.1)")
        p.add_argument("--N", type=float, default=0.01, help="noise variance (default 0.01)")
    p.add_argument("--tol", type=float, default=None, help="quadrature tolerance override")
    if output:
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument(
            "--gnuplot", action="store_true", help="also write a companion gnuplot script"
        )


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join `--name -1e-3` into `--name=-1e-3` for every value that starts with '-'.

    argparse reads only plain decimals such as -0.5 as negative numbers; it
    takes -1e-3, -inf and -nan for options and fails with "expected one
    argument".
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and tok.startswith("-"):
            try:
                float(tok)
            except ValueError:
                pass
            else:
                out[-1] += "=" + tok
                continue
        out.append(tok)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="witsenhausen",
        description="Power vs. estimation-cost trade-off curves of the scalar "
        "Witsenhausen problem with a causal decoder, with Monte-Carlo checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve", help="evaluate one strategy on a grid")
    p.add_argument("--strategy", required=True, choices=strategies.STRATEGIES)
    p.add_argument("--p-min", type=float, default=0.0, dest="p_min")
    p.add_argument("--p-max", type=float, default=None, dest="p_max")
    p.add_argument("--a-min", type=float, default=None, dest="a_min")
    p.add_argument("--a-max", type=float, default=None, dest="a_max")
    p.add_argument("--steps", type=int, default=101)
    _add_common(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("compare", help="all strategies on a shared power grid")
    p.add_argument("--p-min", type=float, default=0.0, dest="p_min")
    p.add_argument("--p-max", type=float, default=None, dest="p_max")
    p.add_argument("--steps", type=int, default=51)
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate", help="Monte-Carlo check of one closed form")
    p.add_argument("--strategy", required=True, choices=["linear", "two-point", "coord"])
    p.add_argument("--P", type=float, default=None, help="power target")
    p.add_argument("--a", type=float, default=None, help="two-point magnitude")
    p.add_argument("--rho", type=float, default=None, help="coord correlation")
    p.add_argument("--n", type=int, default=1_000_000, help="sample count")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    _add_common(p, output=False)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("psi", help="tabulate the entropy reduction function")
    p.add_argument("--alpha-min", type=float, default=-10.0, dest="alpha_min")
    p.add_argument("--alpha-max", type=float, default=10.0, dest="alpha_max")
    p.add_argument("--steps", type=int, default=401)
    _add_common(p, variances=False)
    p.set_defaults(func=cmd_psi)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(argv))
    try:
        return args.func(args, argv)
    except (NonPositiveVariance, ValueError) as exc:
        print(f"invalid arguments for {args.command}: {exc}", file=sys.stderr)
        return 2
    except WitsenhausenError as exc:
        print(
            f"numerical failure in {args.command} ({type(exc).__name__}): {exc}",
            file=sys.stderr,
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
