"""The CLI's option table reads every command line as its former argparse parser did.

`cli_oracle.parse` runs the argparse parser that the table replaced. The
`table_parse` fixture runs `cli.main` with each subcommand's function
replaced by one that records what it was given. On every line of the
corpus both give the same exit code, and where the line runs a command,
the same value for every parsed field.
"""
import importlib.util
import pathlib
import random
import re
import shlex

import pytest

import cli_oracle
from witsenhausen import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Each subcommand's options, each with a value that it accepts; None marks
# the flag. Written out here, not read from either parser.
OPTIONS = {
    "curve": {
        "--strategy": "two-point", "--p-min": "0.01", "--p-max": "0.05", "--a-min": "0.1",
        "--a-max": "2", "--steps": "7", "--Q": "1", "--N": "0.5", "--out": "c.csv",
        "--gnuplot": None,
    },
    "compare": {
        "--p-min": "0.01", "--p-max": "0.05", "--steps": "7", "--Q": "1", "--N": "0.5",
        "--out": "c.csv", "--gnuplot": None,
    },
    "simulate": {
        "--strategy": "coord", "--P": "0.03", "--a": "0.3", "--rho": "-0.5", "--n": "1000",
        "--seed": "3", "--Q": "1", "--N": "0.5",
    },
    "psi": {
        "--alpha-min": "-3", "--alpha-max": "3", "--steps": "7", "--out": "p.csv",
        "--gnuplot": None,
    },
}
FLOAT_OPTIONS = [
    (command, option)
    for command, options in OPTIONS.items()
    for option in options
    if option not in ("--strategy", "--steps", "--n", "--seed", "--out", "--gnuplot")
]
# the options a line must hold to run
REQUIRED = {
    "curve": ["--strategy", "linear", "--out", "o.csv"],
    "compare": ["--out", "o.csv"],
    "simulate": ["--strategy", "linear"],
    "psi": ["--out", "o.csv"],
}


def documented_lines():
    """Every `witsenhausen ...` command line of the README and of CI, as argv lists.

    A line ends at the first shell operator or redirection; $RUNNER_TEMP
    becomes a plain directory.
    """
    lines = []
    for name in ("README.md", ".github/workflows/tests.yml"):
        text = (ROOT / name).read_text(encoding="utf-8").replace("\\\n", " ")
        pattern = r"^\s*(?:rc=0; )?(?:PYTHONPROFILEIMPORTTIME=1 )?witsenhausen(?: (.*))?$"
        for match in re.finditer(pattern, text, re.MULTILINE):
            words = shlex.split((match.group(1) or "").replace("$RUNNER_TEMP", "/tmp/run"))
            ends = [i for i, w in enumerate(words) if w in ("||", "&&", "|") or w.startswith(("2>", ">"))]
            lines.append(words[: min(ends, default=len(words))])
    return lines


def benchmark_lines():
    """The command lines of every benchmark workload."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [argv for w in workloads.WORKLOADS for _, argv in workloads.commands(w, 1, "/tmp/run")]


def both_forms():
    """Every option of every subcommand, as `--name value` and as `--name=value`."""
    lines = []
    for command, options in OPTIONS.items():
        for option, value in options.items():
            if value is None:
                lines.append([command, *REQUIRED[command], option])
            else:
                lines.append([command, *REQUIRED[command], option, value])
                lines.append([command, *REQUIRED[command], f"{option}={value}"])
    return lines


def negative_values():
    """-1e-3, -inf and nan after a space for every float option."""
    return [
        [command, *REQUIRED[command], option, value]
        for command, option in FLOAT_OPTIONS
        for value in ("-1e-3", "-inf", "nan")
    ]


EDGE_LINES = [
    # repeats, prefixes and ambiguous prefixes
    ["compare", "--steps", "3", "--steps", "5", "--out", "o.csv"],
    ["compare", "--st", "3", "--ou", "o.csv", "--gn"],
    ["curve", "--strat", "dpc", "--out=o.csv"],
    ["psi", "--alpha", "1", "--out", "o.csv"],
    ["curve", "--strategy", "linear", "--a", "1", "--out", "o.csv"],
    ["curve", "--st", "linear", "--out", "o.csv"],
    # unknown options and missing values
    ["compare", "--seed", "1"],
    ["compare", "--seed", "1", "--out", "o.csv"],
    ["compare", "--out"],
    ["compare", "--out", "--gnuplot"],
    # bad values and missing required options
    ["compare", "--Q", "x", "--out", "o.csv"],
    ["compare", "--steps", "1.5", "--out", "o.csv"],
    ["simulate", "--strategy", "linear", "--n", "1e6"],
    ["curve", "--strategy", "nope", "--out", "o.csv"],
    ["simulate", "--strategy", "dpc"],
    ["compare"],
    ["curve", "--out", "o.csv"],
    ["simulate"],
    ["compare", "--gnuplot=1", "--out", "o.csv"],
    ["compare", "--out", "-x"],
    # values that start with '-', hold a space or an '='
    ["compare", "--out", "-"],
    ["compare", "--out", "-1e-3"],
    ["compare", "--out", "a b.csv"],
    ["compare", "--out", "-a b.csv"],
    ["compare", "--out=--out=a b.csv"],
    ["compare", "--out", "--out=a b.csv"],
    ["compare", "--out="],
    ["compare", "--out", ""],
    ["psi", "--alpha-min=-1e-3", "--out", "o.csv"],
    ["psi", "--steps", "-5", "--out", "o.csv"],
    ["simulate", "--strategy", "linear", "--seed", "-1"],
    # no subcommand first
    ["--Q", "1", "compare"],
    [],
    ["nosuch"],
    ["--out", "o.csv"],
    # help first, after options and after a bad value
    ["-h"],
    ["--help"],
    ["--he"],
    ["compare", "-h"],
    ["compare", "--Q", "1", "-h"],
    ["curve", "--strategy", "linear", "--hel"],
    ["compare", "--steps", "x", "-h"],
    ["compare", "--out", "-h"],
    ["compare", "-h", "--seed", "1"],
]

CORPUS = documented_lines() + benchmark_lines() + both_forms() + negative_values() + EDGE_LINES


def comparable(result):
    """(exit code, fields) with each value as its repr, so that nan equals nan."""
    code, fields = result
    return code, fields and {k: repr(v) for k, v in fields.items()}


@pytest.fixture
def table_parse(monkeypatch):
    """(exit code, parsed fields or None) of `cli.main` on a line, running no command."""
    seen = []
    for name, (_, text) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, (lambda args, argv: seen.append(vars(args)) or 0, text))

    def parse(argv):
        seen.clear()
        code = cli.main(list(argv))
        fields = {k: v for k, v in seen[0].items() if k != "started"} if seen else None
        return code, fields

    return parse


def test_the_corpus_holds_the_documented_lines():
    lines = documented_lines()
    assert len(lines) >= 35
    assert ["compare", "--Q", "0.1", "--N", "0.01", "--steps", "51", "--out", "comparison.csv",
            "--gnuplot"] in lines
    assert ["nosuch"] in lines and ["--help"] in lines


@pytest.mark.parametrize("argv", CORPUS, ids=[" ".join(a) or "(empty)" for a in CORPUS])
def test_the_table_reads_a_line_as_argparse_did(table_parse, argv):
    assert comparable(table_parse(argv)) == comparable(cli_oracle.parse(argv))


def test_the_table_reads_random_lines_as_argparse_did(table_parse):
    # lines of valid and invalid options, names and prefixes, values in both
    # forms: numbers, words, and tokens that start with '-' or hold a space
    values = ["0", "-1", "1.5", "-1e-3", "-inf", "nan", "-1_0", "x", "", "-", "a b", "-a b",
              "--out=a b", "-h x", "linear", "coord", "nope", " 2", "-.5", "--x", "-x", "a=b"]
    rng = random.Random(20261020)
    accepted = 0
    for _ in range(1500):
        command = rng.choice(list(OPTIONS))
        argv = [command]
        for _ in range(rng.randint(1, 6)):
            option, value = rng.choice(list(OPTIONS[command].items()))
            name = option[: rng.randint(3, len(option))]
            if value is None:
                argv.append(name)
                continue
            value = rng.choice([value, rng.choice(values)])
            argv += [f"{name}={value}"] if rng.random() < 0.4 else [name, value]
        result = table_parse(argv)
        assert comparable(result) == comparable(cli_oracle.parse(argv)), argv
        accepted += result[1] is not None
    assert accepted >= 100


# Lines that hold -h and an error, and so run no command with either parser,
# where the two report differently: (argv, the table's exit code, argparse's).
# The table reports whichever comes first; argparse reported an unknown
# option only once the whole line was read, an ambiguous prefix before
# anything else, glued a number to the long option before it, read -hh as
# -h -h, and let an unknown option stand before the subcommand.
HELP_AND_AN_ERROR = [
    (["compare", "--seed", "1", "-h"], 2, 0),
    (["psi", "-h", "--alpha", "1"], 0, 2),
    (["compare", "--help", "-1"], 0, 2),
    (["compare", "-hh"], 2, 0),
    (["--Q", "-h"], 2, 0),
]


@pytest.mark.parametrize(
    "argv, code, argparse_code", HELP_AND_AN_ERROR, ids=[" ".join(a) for a, _, _ in HELP_AND_AN_ERROR]
)
def test_help_and_an_error_on_one_line(table_parse, argv, code, argparse_code):
    assert table_parse(argv) == (code, None)
    assert cli_oracle.parse(argv) == (argparse_code, None)


@pytest.mark.parametrize("command, option", FLOAT_OPTIONS, ids="{0[0]} {0[1]}".format)
def test_a_glued_negative_value_reaches_every_float_option(table_parse, command, option):
    # `--name=-1e-3` is read as -1e-3, as `--name -1e-3` is
    dest = option[2:].replace("-", "_")
    for argv in ([option, "-1e-3"], [f"{option}=-1e-3"]):
        code, fields = table_parse([command, *REQUIRED[command], *argv])
        assert code == 0 and fields[dest] == -1e-3
