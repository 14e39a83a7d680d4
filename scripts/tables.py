#!/usr/bin/env python3
"""Generate the Chebyshev series of the tabulated entropy reduction function Psi.

Psi(alpha) = int 2 Phi(alpha x) log2(2 Phi(alpha x)) phi(x) dx is even and
analytic in alpha, and `witsenhausen.skewnormal` evaluates it for
0 < |alpha| <= 500 from two series on [0, 1]:

  Psi = alpha^2 h1(alpha^2)          for |alpha| <= 1,
  Psi = 1 - h2(1/alpha^2) / |alpha|  for |alpha| > 1.

With u = alpha x and e = 1/alpha^2, 1 - Psi = -(phi(0)/alpha) int r(u)
exp(-e u^2/2) du, where r = 2 Phi log2(2 Phi) - 2 1{u > 0} decays like a
Gaussian on both sides; so h2(e) = -phi(0) int r(u) exp(-e u^2/2) du is
analytic in e. Both integrals fold the line onto x, u >= 0, where with
s = erf(z/sqrt(2)) and c = erfc(z/sqrt(2)) the pair of points +-z gives
(1 + s) log2(1 + s) + c log2(c) under Psi's integral and
-c + (2 - c) log2(1 - c/2) + c log2(c) under h2's: no term cancels.

Each h is the degree-26 interpolant at the 27 first-kind Chebyshev nodes of
[0, 1], from 30-digit mpmath quadrature (about 6 s). The coefficients c_k
of sum_k c_k T_k(2e - 1) are printed as Python tuples, c_0 halved.

  python scripts/tables.py           print the two tuples
  python scripts/tables.py --check   exit 1 if skewnormal's tuples differ
"""
from __future__ import annotations

import argparse
import sys

import mpmath

DEGREE = 26
DIGITS = 30


def chebyshev_coefficients(f, degree: int = DEGREE) -> tuple[float, ...]:
    """Coefficients of the interpolant of f on [0, 1] at degree + 1 first-kind nodes.

    The series is sum_k c_k T_k(2e - 1) with c_0 already halved; each c_k is
    formed in mpmath and rounded to the nearest double once.
    """
    n = degree + 1
    theta = [mpmath.pi * (j + mpmath.mpf(0.5)) / n for j in range(n)]
    values = [f((1 + mpmath.cos(t)) / 2) for t in theta]
    coeffs = []
    for k in range(n):
        c = 2 * mpmath.fsum(v * mpmath.cos(k * t) for v, t in zip(values, theta)) / n
        coeffs.append(float(c / 2 if k == 0 else c))
    return tuple(coeffs)


def _half_line(g):
    """int_0^inf g, split where the integrands change scale."""
    return mpmath.quad(g, [0, 1, 4, 8, mpmath.inf])


def h1(e):
    """Psi(sqrt(e)) / e, for 0 < e <= 1."""
    alpha = mpmath.sqrt(e)

    def pair(x):
        z = alpha * x / mpmath.sqrt(2)
        s, c = mpmath.erf(z), mpmath.erfc(z)
        return ((1 + s) * mpmath.log(1 + s) + c * mpmath.log(c)) * mpmath.npdf(x)

    return _half_line(pair) / mpmath.log(2) / e


def h2(e):
    """(1 - Psi(1/sqrt(e))) / sqrt(e), for 0 < e <= 1."""

    def pair(u):
        c = mpmath.erfc(u / mpmath.sqrt(2))
        r = -c * mpmath.log(2) + (2 - c) * mpmath.log1p(-c / 2) + c * mpmath.log(c)
        return r * mpmath.exp(-e * u * u / 2)

    return -mpmath.npdf(0) * _half_line(pair) / mpmath.log(2)


def tables() -> dict[str, tuple[float, ...]]:
    with mpmath.workdps(DIGITS):
        return {"_H1": chebyshev_coefficients(h1), "_H2": chebyshev_coefficients(h2)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument(
        "--check", action="store_true",
        help="compare with the tuples committed in witsenhausen.skewnormal",
    )
    args = ap.parse_args(argv)
    fresh = tables()
    if not args.check:
        for name, coeffs in fresh.items():
            print(f"{name} = (")
            print("".join(f"    {c!r},\n" for c in coeffs), end="")
            print(")")
        return 0
    from witsenhausen import skewnormal

    stale = [name for name, coeffs in fresh.items() if getattr(skewnormal, name) != coeffs]
    for name in stale:
        print(f"skewnormal.{name} differs from its regenerated coefficients", file=sys.stderr)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
