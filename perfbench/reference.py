"""Check a CSV written by the CLI against a reference CSV.

Columns are matched by name, so added columns (such as a future `note`
column) are accepted. `aux1`/`aux2` hold optimizer arguments, which are not
unique where S = 0, and are not checked. Numbers must agree to a relative
tolerance: 1e-7 for the coord family, whose optimizer is expected to change
by that much, and 1e-8 elsewhere. Values that are 0 in theory come out of the
program as rounding noise (lin-dpc returns 1e-18-sized numbers today), so a
value counts as zero when it is below 1e-5 of the largest magnitude in its
column, and two zeros match. Infeasibility (an empty cell, or
`feasible=false`) must match exactly.
"""
from __future__ import annotations

import csv
import io

UNCHECKED = {"aux1", "aux2"}
EXACT = {"strategy", "feasible"}
RTOL = 1e-8
RTOL_COORD = 1e-7
ZERO_SHARE = 1e-5


def read_csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    reader = csv.DictReader(io.StringIO(text))
    return list(reader.fieldnames or []), list(reader)


def _column_rtol(column: str, row: dict[str, str]) -> float:
    return RTOL_COORD if column == "coord" or row.get("strategy") == "coord" else RTOL


def check_csv(reference: str, output: str) -> list[str]:
    """Return the mismatches of `output` against `reference`; empty when it matches."""
    ref_cols, ref_rows = read_csv(reference)
    out_cols, out_rows = read_csv(output)
    problems = [f"missing column {c!r}" for c in ref_cols if c not in out_cols]
    if len(out_rows) != len(ref_rows):
        problems.append(f"{len(out_rows)} rows, reference has {len(ref_rows)}")
    if problems:
        return problems
    for col in ref_cols:
        if col in UNCHECKED:
            continue
        if col in EXACT:
            for i, (r, o) in enumerate(zip(ref_rows, out_rows)):
                if r[col] != o[col]:
                    problems.append(f"row {i} {col}: {o[col]!r} != {r[col]!r}")
            continue
        scale = max((abs(float(r[col])) for r in ref_rows if r[col]), default=0.0)
        zero = ZERO_SHARE * scale
        for i, (r, o) in enumerate(zip(ref_rows, out_rows)):
            if (r[col] == "") != (o[col] == ""):
                problems.append(f"row {i} {col}: feasibility {o[col]!r} vs reference {r[col]!r}")
                continue
            if r[col] == "":
                continue
            ref, out = float(r[col]), float(o[col])
            if abs(ref) <= zero and abs(out) <= zero:
                continue
            if not abs(out - ref) <= _column_rtol(col, r) * abs(ref):
                problems.append(f"row {i} {col}: {out!r} vs reference {ref!r}")
    return problems


def simulate_passed(stdout: str) -> bool:
    """True when the simulate report ends with the overall PASS verdict."""
    lines = stdout.strip().splitlines()
    return bool(lines) and lines[-1].strip() == "PASS"
