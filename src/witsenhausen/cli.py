"""Command-line front end.

Subcommands: ``curve`` (one strategy on a power or magnitude grid),
``compare`` (all strategies on a shared power grid), ``simulate`` (Monte-Carlo
against the closed forms with a 4-standard-error verdict) and ``psi`` (the
entropy reduction function on a grid).

The command line is read left to right by one option table, `_OPTIONS`,
which also generates -h and the usage lines. It reads as argparse did:
`--name value` or `--name=value`, a long name matched exactly or by a unique
prefix, and a number such as -1e-3 as a value after a space too.

Outputs are CSV (UTF-8, LF, header row, '.' decimals, full-precision
round-trippable numbers) plus a JSON run manifest next to each CSV. Plotting
is left to external tools; --gnuplot writes a companion script.

Exit codes, which `main` returns, help and usage errors included: 0 ok or
help, 1 simulation verdict FAIL, 2 usage error (an option the table refuses,
or a ValueError), 3 numerical failure: a domain error of the solvers or
quadratures, or an arithmetic overflow.
"""
from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import time
from types import SimpleNamespace

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


def _write_outputs(args, argv: list[str], header: list[str], rows, ys: int = 1, ylabel=None) -> int:
    """Write the CSV at --out, its manifest and, with --gnuplot, its companion script; 0."""
    _write_csv(args.out, header, rows)
    _manifest(args, argv, args.out)
    if args.gnuplot:
        _gnuplot_script(args.out, header, ys, ylabel)
    return 0


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
    return _write_outputs(args, argv, _CURVE_HEADER, rows)


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
    return _write_outputs(args, argv, _COMPARE_HEADER, rows, len(_COMPARE_COLUMNS), "S")


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
    return _write_outputs(args, argv, ["alpha", "psi"], rows)


class _Help(Exception):
    """-h or --help was reached."""


class _UsageError(Exception):
    """The option table refuses the command line; the message says why."""


_REQUIRED = object()

# The option table: (flag, the subcommands that take it, type or choices,
# default, help), in the order of the usage and help. The value lands in the
# flag's name with '-' as '_' (--p-min: p_min). A bool option takes no value
# and is True when given; a tuple lists the values an option accepts. Where
# the default is None, the help says what None stands for.
_OPTIONS = [
    ("--strategy", "curve", strategies.STRATEGIES, _REQUIRED, "the strategy"),
    ("--strategy", "simulate", ("linear", "two-point", "coord"), _REQUIRED, "the policy"),
    ("--p-min", "curve compare", float, None, "lowest power (default 0)"),
    ("--p-max", "curve compare", float, None, "highest power (default Q)"),
    ("--a-min", "curve", float, None, "two-point: lowest magnitude (default 0)"),
    ("--a-max", "curve", float, None, "two-point: highest magnitude (default 3 sqrt(Q))"),
    ("--steps", "curve", int, 101, "grid points"),
    ("--steps", "compare", int, 51, "grid points"),
    ("--P", "simulate", float, None, "power target (no default)"),
    ("--a", "simulate", float, None, "two-point magnitude (no default)"),
    ("--rho", "simulate", float, None, "coord correlation (no default)"),
    ("--n", "simulate", int, 1_000_000, "sample count"),
    ("--seed", "simulate", int, 0, "RNG seed"),
    ("--alpha-min", "psi", float, -10.0, "lowest alpha"),
    ("--alpha-max", "psi", float, 10.0, "highest alpha"),
    ("--steps", "psi", int, 401, "grid points"),
    ("--Q", "curve compare simulate", float, 0.1, "state variance"),
    ("--N", "curve compare simulate", float, 0.01, "noise variance"),
    ("--out", "curve compare psi", str, _REQUIRED, "output CSV path"),
    ("--gnuplot", "curve compare psi", bool, False, "also write a companion gnuplot script"),
]
_HELP = ("--help", "", bool, None, "show this help message and exit")

# subcommand: (its function, its help)
_COMMANDS = {
    "curve": (cmd_curve, "evaluate one strategy on a grid"),
    "compare": (cmd_compare, "all strategies on a shared power grid"),
    "simulate": (cmd_simulate, "Monte-Carlo check of one closed form"),
    "psi": (cmd_psi, "tabulate the entropy reduction function"),
}
_CHOICES = "{" + ",".join(_COMMANDS) + "}"
_DESCRIPTION = """\
Power vs. estimation-cost trade-off curves of the scalar Witsenhausen problem
with a causal decoder, with Monte-Carlo checks."""


def _table(command: str | None) -> list[tuple]:
    """The rows of the options that `command` takes; none for None."""
    return [row for row in _OPTIONS if command in row[1].split()]


def _invocation(row: tuple) -> str:
    """`--flag`, `--flag {a,b}` or `--flag METAVAR`, as the usage and help show a row."""
    flag, _, kind = row[:3]
    metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else flag[2:].replace("-", "_").upper()
    return flag if kind is bool else f"{flag} {metavar}"


def _usage(command: str | None) -> str:
    """The usage lines of `command` (None: the top level), wrapped at 78 columns."""
    parts = [_invocation(row) if row[3] is _REQUIRED else f"[{_invocation(row)}]" for row in _table(command)]
    lines = [f"usage: witsenhausen {command}" if command else "usage: witsenhausen"]
    for part in ["[-h]", *parts] if command else ["[-h]", _CHOICES, "..."]:
        if len(lines[-1]) + len(part) >= 78:
            lines.append(" " * len(lines[0]))
        lines[-1] += " " + part
    return "\n".join(lines)


def _help(command: str | None) -> str:
    """The -h text of `command` (None: the top level), laid out as argparse did.

    Each option's line gives its default or says that it is required.
    """
    lines = [_usage(command), ""]
    if command is None:
        lines += [_DESCRIPTION, "", "positional arguments:", "  " + _CHOICES]
        lines += [f"    {name:<20}{text}" for name, (_, text) in _COMMANDS.items()] + [""]
    lines.append("options:")
    for row in [_HELP, *_table(command)]:
        default, text = row[3:]
        inv = "-h, --help" if row is _HELP else _invocation(row)
        if default is not None:
            shown = "off" if default is False else default
            text += " (required)" if default is _REQUIRED else f" (default {shown})"
        lines.append(f"  {inv:<20}  {text}" if len(inv) <= 20 else f"  {inv}\n{'':24}{text}")
    return "\n".join(lines)


def _lookup(tok: str, rows: dict) -> tuple | None:
    """(the row, the value glued to it or None) of the option `tok` names, or None.

    A long name matches exactly, or else by a unique prefix (a lone `--` is
    none), and `--name=value` glues its value; -h glues the rest of its
    token. An ambiguous prefix is a usage error.
    """
    if tok[:2] != "--":
        return (_HELP, tok[2:] or None) if tok[:2] == "-h" else None
    name, eq, value = tok.partition("=")
    hits = [name] if name in rows else [f for f in rows if len(name) > 2 and f.startswith(name)]
    if len(hits) > 1:
        raise _UsageError(f"ambiguous option: {tok} could match {', '.join(hits)}")
    return (rows[hits[0]], value if eq else None) if hits else None


def _is_value(tok: str, rows: dict) -> bool:
    """Whether `tok` reads as an option's value, as it did with argparse.

    It does if it does not start with '-', if it is a lone '-' or a number
    (-1e-3, -inf, -nan), or if it names no option and holds a space.
    """
    if tok[:1] != "-" or tok == "-":
        return True
    try:
        float(tok)
    except ValueError:
        return " " in tok and _lookup(tok, rows) is None
    return True


def _parse(command: str | None, toks: list[str]) -> SimpleNamespace:
    """The options of `command` read from `toks` by the option table, left to right.

    Help and usage errors are raised where they are reached, as _Help and
    _UsageError. A valued option takes the next token if it reads as a
    value; the last of a repeated option wins. Without a subcommand (None),
    only -h may come first.
    """
    table = _table(command)
    rows = {"--help": _HELP} | {row[0]: row for row in table}
    found, i = {}, 0
    while i < len(toks):
        tok, i = toks[i], i + 1
        option = _lookup(tok, rows)
        if option is None:
            raise _UsageError(
                f"unrecognized arguments: {tok}" if command else f"argument command: invalid choice: {tok!r}"
            )
        row, value = option
        flag, _, kind = row[:3]
        if kind is bool:
            if value is not None:
                raise _UsageError(f"argument {flag}: ignored explicit argument {value!r}")
            if row is _HELP:
                raise _Help
            found[flag] = True
            continue
        if value is None:
            if i == len(toks) or not _is_value(toks[i], rows):
                raise _UsageError(f"argument {flag}: expected one argument")
            value, i = toks[i], i + 1
        try:
            # a tuple's index() raises ValueError for a value it does not list
            found[flag] = kind[kind.index(value)] if isinstance(kind, tuple) else kind(value)
        except ValueError:
            what = "choice" if isinstance(kind, tuple) else f"{kind.__name__} value"
            raise _UsageError(f"argument {flag}: invalid {what}: {value!r}") from None
    if command is None:
        raise _UsageError("the following arguments are required: command")
    missing = [row[0] for row in table if row[3] is _REQUIRED and row[0] not in found]
    if missing:
        raise _UsageError("the following arguments are required: " + ", ".join(missing))
    fields = {row[0][2:].replace("-", "_"): found.get(row[0], row[3]) for row in table}
    return SimpleNamespace(command=command, **fields)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _parse(command, argv[1:] if command else argv)
    except _Help:
        print(_help(command))
        return 0
    except _UsageError as exc:
        prog = f"witsenhausen {command}" if command else "witsenhausen"
        print(f"{_usage(command)}\n{prog}: error: {exc}", file=sys.stderr)
        return 2
    args.started = time.perf_counter()
    try:
        # every command with an output writes its manifest, which reads the
        # git state: git runs while the command does
        if "out" in vars(args):
            _GIT.start()
        return _COMMANDS[command][0](args, argv)
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
