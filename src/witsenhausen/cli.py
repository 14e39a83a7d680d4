"""Command-line front end.

Subcommands: ``curve`` (one strategy on a power or magnitude grid),
``compare`` (all strategies on a shared power grid), ``simulate`` (Monte-Carlo
against the closed forms with a 4-standard-error verdict) and ``psi`` (the
entropy reduction function on a grid).

Outputs are CSV (UTF-8, LF, header row, '.' decimals, full-precision
round-trippable numbers) plus a JSON run manifest next to each CSV. Plotting
is left to external tools; --gnuplot writes a companion script.

Exit codes: 0 ok, 1 simulation verdict FAIL, 2 usage error (ValueError), 3
numerical failure: a domain error of the solvers or quadratures, or an
arithmetic overflow.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import subprocess
import sys
import time

import numpy as np

from . import __version__, montecarlo, numerics, skewnormal, strategies
from .core import CurvePoint, WitsenhausenError, validate_params

__all__ = ["main"]


class _GitState:
    """`git describe` of the checkout that holds this package, not of the CWD.

    Read once per process: the code that runs was loaded once, so its state
    is the one at the first read. `start` runs git as a child process, so
    that it works while the command does; `read` collects it. A git that is
    missing, fails or hangs past 5 s gives "unknown".
    """

    def __init__(self) -> None:
        self.value: str | None = None
        self.child: subprocess.Popen | None = None

    def start(self) -> None:
        """Start git, unless it was started or read before."""
        if self.value is not None or self.child is not None:
            return
        try:
            self.child = subprocess.Popen(
                ["git", "describe", "--always", "--dirty"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
            )
        except OSError:
            self.value = "unknown"

    def read(self) -> str:
        """The state, waiting for a started git; one that hangs is killed and reaped."""
        self.start()
        if self.value is None:
            try:
                out, _ = self.child.communicate(timeout=5)
            except subprocess.TimeoutExpired:
                self.child.kill()
                self.child.communicate()
                out = None
            ok = out is not None and self.child.returncode == 0
            self.value = out.strip() if ok else "unknown"
            self.child = None
        return self.value


_GIT = _GitState()


def _fmt(value) -> str:
    """Full-precision, round-trippable decimal text; empty for missing."""
    if value is None:
        return ""
    return repr(float(value))


def _write(path: str, text: str) -> None:
    """Write text to `path` as UTF-8 with LF line ends.

    A path that cannot be written is a usage error: the OSError is raised
    again as a ValueError that names the path.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    """Write the header and rows to `path` as CSV text with LF line ends, in one write.

    No field ever needs quoting: fields are float reprs, strategy names,
    true/false or empty. A field that would need it (a ',', '"' or line
    break) is a program error: it raises RuntimeError naming the file, and
    no file is written.
    """
    text = "\n".join([",".join(header), *map(",".join, rows)]) + "\n"
    lines = len(rows) + 1
    if (
        '"' in text
        or "\r" in text
        or text.count("\n") != lines
        or text.count(",") != lines * (len(header) - 1)
    ):
        raise RuntimeError(f"a field of {path} needs CSV quoting")
    _write(path, text)


def _manifest(args, argv: list[str], out: str) -> None:
    """Write the reproducibility record of a run next to its CSV, as out + ".manifest"."""
    manifest = {
        "command": args.command,
        "argv": argv,
        "Q": getattr(args, "Q", None),
        "N": getattr(args, "N", None),
        "tolerances": {
            "quadrature_abs_tol": numerics.QUAD_TOL,
            "quadrature_rel_tol": numerics.QUAD_TOL,
            "coord_peak_rho_xtol": skewnormal.PEAK_RHO_TOL,
            "coord_edge_rho_xtol": skewnormal.EDGE_RHO_TOL,
            "lin_dpc_rho_xtol": strategies.LIN_DPC_RHO_TOL,
        },
        "git_describe": _GIT.read(),
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        # null where the command never loaded SciPy
        "scipy_version": getattr(sys.modules.get("scipy"), "__version__", None),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "elapsed_s": time.perf_counter() - args.started,
        "output": out,
    }
    _write(out + ".manifest", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _gnuplot_script(out: str, header: list[str], ys: int, ylabel: str | None = None) -> None:
    """Write out + ".gnuplot": CSV columns 2 .. ys + 1 against column 1, a line each.

    The axes are labelled from the CSV header: x by its first column, y by
    its second unless `ylabel` names the quantity that the columns share.
    The CSV path is quoted with each ' doubled, gnuplot's escape inside
    single quotes.
    """
    path = out.replace("'", "''")
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set xlabel '{header[0]}'",
        f"set ylabel '{ylabel or header[1]}'",
        "plot " + ", ".join(f"'{path}' using 1:{i + 2} with lines" for i in range(ys)),
    ]
    _write(out + ".gnuplot", "\n".join(lines) + "\n")


def _grid(
    lo: float, hi: float, steps: int, name: str, nonnegative: bool = True
) -> np.ndarray:
    """`steps` evenly spaced values from lo to hi; a bad grid is a usage error.

    Checks --steps and the bounds --<name>-min/--<name>-max: both finite,
    lo < hi, a finite span hi - lo (np.linspace steps through it) and, when
    `nonnegative`, lo >= 0.
    """
    if steps < 2:
        raise ValueError("--steps must be >= 2")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"--{name}-min and --{name}-max must be finite")
    if not (0.0 if nonnegative else -math.inf) <= lo < hi:
        floor = "0 <= " if nonnegative else ""
        raise ValueError(f"need {floor}{name}-min < {name}-max")
    if not math.isfinite(hi - lo):
        raise ValueError(f"the span {name}-max - {name}-min overflows")
    return np.linspace(lo, hi, steps)


def _power_grid(args, params) -> np.ndarray:
    p_min = args.p_min if args.p_min is not None else 0.0
    p_max = args.p_max if args.p_max is not None else params.Q
    return _grid(p_min, p_max, args.steps, "p")


def _point_row(pt: CurvePoint, strategy: str) -> list[str]:
    return [
        _fmt(pt.P),
        _fmt(pt.S),
        strategy,
        _fmt(pt.aux1),
        _fmt(pt.aux2),
        "false" if pt.S is None else "true",
    ]


_CURVE_HEADER = ["P", "S", "strategy", "aux1", "aux2", "feasible"]


def cmd_curve(args, argv: list[str]) -> int:
    params = validate_params(args.Q, args.N)
    sweep_a = args.a_min is not None or args.a_max is not None
    if sweep_a and args.strategy != "two-point":
        raise ValueError("--a-min/--a-max only apply to the two-point strategy")
    if sweep_a and (args.p_min is not None or args.p_max is not None):
        raise ValueError("--p-min/--p-max do not apply to a magnitude sweep (--a-min/--a-max)")

    if sweep_a:
        a_min = args.a_min if args.a_min is not None else 0.0
        a_max = args.a_max if args.a_max is not None else 3.0 * math.sqrt(params.Q)
        grid = _grid(a_min, a_max, args.steps, "a")
        powers, costs = strategies.two_point_cost_grid(grid, params)
        points = [
            CurvePoint(p, s, a)
            for p, s, a in zip(powers.tolist(), costs.tolist(), grid.tolist())
        ]
    else:
        points = strategies.curve(args.strategy, params, _power_grid(args, params))
    rows = [_point_row(pt, args.strategy) for pt in points]

    _write_csv(args.out, _CURVE_HEADER, rows)
    _manifest(args, argv, args.out)
    if args.gnuplot:
        _gnuplot_script(args.out, _CURVE_HEADER, 1)
    return 0


_COMPARE_COLUMNS = [s.replace("-", "_") for s in strategies.STRATEGIES]
_COMPARE_HEADER = ["P"] + _COMPARE_COLUMNS


def cmd_compare(args, argv: list[str]) -> int:
    params = validate_params(args.Q, args.N)
    grid = _power_grid(args, params)
    curves = [strategies.curve(s, params, grid) for s in strategies.STRATEGIES]
    rows = [
        [_fmt(pts[0].P)] + [_fmt(pt.S) for pt in pts]
        for pts in zip(*curves)
    ]
    _write_csv(args.out, _COMPARE_HEADER, rows)
    _manifest(args, argv, args.out)
    if args.gnuplot:
        _gnuplot_script(args.out, _COMPARE_HEADER, len(_COMPARE_COLUMNS), "S")
    return 0


def cmd_simulate(args, argv: list[str]) -> int:
    params = validate_params(args.Q, args.N)
    sim_cfg = montecarlo.SimConfig(n_samples=args.n, seed=args.seed)

    if args.strategy == "linear":
        if args.P is None:
            raise ValueError("linear simulation needs --P")
        policy = strategies.linear_policy_for_power(args.P, params)
        closed_p = args.P
        closed_s = strategies.mmse_linear(args.P, params)
        emp = montecarlo.simulate_linear(policy, params, sim_cfg)
        label = f"linear P={args.P}"
    elif args.strategy == "two-point":
        if args.a is None:
            raise ValueError("two-point simulation needs --a")
        policy = strategies.TwoPointPolicy(args.a)
        closed_p, closed_s = strategies.two_point_costs(policy, params)
        emp = montecarlo.simulate_two_point(policy, params, sim_cfg)
        label = f"two-point a={args.a}"
    else:
        if args.P is None or args.rho is None:
            raise ValueError("coord simulation needs --P and --rho")
        policy = skewnormal.CoordPolicy(args.P, args.rho)
        closed_p = args.P
        closed_s = skewnormal.coord_mmse_at_rho(policy, params)
        emp = montecarlo.simulate_hybrid_conditional(policy, params, sim_cfg)
        label = f"coord P={args.P} rho={args.rho}"

    checks = (
        ("power", closed_p, emp.power_mean, emp.power_stderr),
        ("mmse", closed_s, emp.mmse_mean, emp.mmse_stderr),
    )
    # One rounding step of a nonzero closed form fails a band narrower than 2
    # of its ulps, so the verdict could only see rounding; a NaN band fails too.
    for name, closed, _, stderr in checks:
        if closed != 0.0 and not 4.0 * stderr >= 2.0 * math.ulp(closed):
            raise ValueError(
                f"{label} cannot be judged with n={args.n}: the measured "
                f"4-standard-error band {4.0 * stderr:.3g} of its {name} is "
                f"narrower than 2 ulps of closed={closed:.6g}"
            )

    ok = True
    print(f"simulate {label}  n={args.n}  seed={args.seed}")
    for name, closed, mean, stderr in checks:
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
    grid = _grid(args.alpha_min, args.alpha_max, args.steps, "alpha", nonnegative=False)
    psi = skewnormal.entropy_reduction(grid)
    rows = [[repr(a), repr(v)] for a, v in zip(grid.tolist(), psi.tolist())]
    header = ["alpha", "psi"]
    _write_csv(args.out, header, rows)
    _manifest(args, argv, args.out)
    if args.gnuplot:
        _gnuplot_script(args.out, header, 1)
    return 0


def _add_common(
    p: argparse.ArgumentParser, variances: bool = True, output: bool = True
) -> None:
    if variances:
        p.add_argument("--Q", type=float, default=0.1, help="state variance (default 0.1)")
        p.add_argument("--N", type=float, default=0.01, help="noise variance (default 0.01)")
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


def _curve_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", required=True, choices=strategies.STRATEGIES)
    p.add_argument("--p-min", type=float, default=None, dest="p_min")
    p.add_argument("--p-max", type=float, default=None, dest="p_max")
    p.add_argument("--a-min", type=float, default=None, dest="a_min")
    p.add_argument("--a-max", type=float, default=None, dest="a_max")
    p.add_argument("--steps", type=int, default=101)
    _add_common(p)
    p.set_defaults(func=cmd_curve)


def _compare_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p-min", type=float, default=None, dest="p_min")
    p.add_argument("--p-max", type=float, default=None, dest="p_max")
    p.add_argument("--steps", type=int, default=51)
    _add_common(p)
    p.set_defaults(func=cmd_compare)


def _simulate_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", required=True, choices=["linear", "two-point", "coord"])
    p.add_argument("--P", type=float, default=None, help="power target")
    p.add_argument("--a", type=float, default=None, help="two-point magnitude")
    p.add_argument("--rho", type=float, default=None, help="coord correlation")
    p.add_argument("--n", type=int, default=1_000_000, help="sample count")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    _add_common(p, output=False)
    p.set_defaults(func=cmd_simulate)


def _psi_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha-min", type=float, default=-10.0, dest="alpha_min")
    p.add_argument("--alpha-max", type=float, default=10.0, dest="alpha_max")
    p.add_argument("--steps", type=int, default=401)
    _add_common(p, variances=False)
    p.set_defaults(func=cmd_psi)


# subcommand: (help, the function that adds its options)
_COMMANDS = {
    "curve": ("evaluate one strategy on a grid", _curve_options),
    "compare": ("all strategies on a shared power grid", _compare_options),
    "simulate": ("Monte-Carlo check of one closed form", _simulate_options),
    "psi": ("tabulate the entropy reduction function", _psi_options),
}


@functools.cache
def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The CLI's parser for running `command`, built once per command per process.

    Every subcommand is registered with its help, so -h and a missing or
    unknown subcommand read as they would with every option built; only
    `command` gets its options (none for None). Parsing leaves it unchanged.
    """
    parser = argparse.ArgumentParser(
        prog="witsenhausen",
        description="Power vs. estimation-cost trade-off curves of the scalar "
        "Witsenhausen problem with a causal decoder, with Monte-Carlo checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == command:
            options(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(_attach_negative_values(argv))
    args.started = time.perf_counter()
    try:
        # every command with an output writes its manifest, which reads the
        # git state: git runs while the command does
        if "out" in vars(args):
            _GIT.start()
        return args.func(args, argv)
    except ValueError as exc:
        print(f"invalid arguments for {args.command}: {exc}", file=sys.stderr)
        return 2
    except (WitsenhausenError, ArithmeticError) as exc:
        print(
            f"numerical failure in {args.command} ({type(exc).__name__}): {exc}",
            file=sys.stderr,
        )
        return 3
    finally:
        # no git outlives main: a command that failed before its manifest
        # leaves it unread
        if _GIT.child is not None:
            _GIT.read()


if __name__ == "__main__":
    sys.exit(main())
