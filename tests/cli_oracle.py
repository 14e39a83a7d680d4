"""The CLI's former argparse parser, kept as the reference for its option table.

`witsenhausen.cli` parses the command line from one option table per
subcommand. This module holds the argparse parser that it replaced, with its
options and `_attach_negative_values`, so that a test can run both on the
same command lines. `parse` runs it and returns what `cli.main` would see.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io

from witsenhausen import strategies
from witsenhausen.cli import cmd_compare, cmd_curve, cmd_psi, cmd_simulate


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


def parse(argv: list[str]) -> tuple[int, dict | None]:
    """(0, the parsed fields) for a command line the parser accepts, else (its exit code, None).

    Help (exit 0) and usage errors (exit 2) leave no fields; what argparse
    prints is discarded. The fields leave out `func`, the command's function.
    """
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args = build_parser(command).parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code), None
    fields = vars(args)
    del fields["func"]
    return 0, fields
