"""Quasipolynomials with periodic rational coefficients.

A quasipolynomial is a function Q(n) = sum_i a_i(n)·n^i whose coefficients
a_i are periodic in n.  It is stored as a table of exact rationals indexed by
residue class and power.  This module provides evaluation, reduction to the
minimal period, the grade (the largest power whose coefficient still varies
with the residue), differences Q(n) - Q(n-g), and exact interpolation from
sampled values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import InconsistentFitError, InputFormatError, InsufficientSamplesError
from .exactmath import divisors, format_rational, parse_rational, rat_solve

Row = tuple[Fraction, ...]


@dataclass(frozen=True)
class QuasiPolynomial:
    """Coefficient table of a quasipolynomial.

    ``coeffs[r][i]`` is the coefficient of n^i on the residue class
    n ≡ r (mod period).  ``degree == -1`` encodes the zero quasipolynomial
    and comes with an empty table.
    """

    period: int
    degree: int
    coeffs: tuple[Row, ...]

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be positive")
        if self.degree < -1:
            raise ValueError("degree must be >= -1")
        if self.degree == -1:
            if self.coeffs != ():
                raise ValueError("zero quasipolynomial must have an empty table")
            return
        if len(self.coeffs) != self.period:
            raise ValueError("table must have one row per residue")
        width = self.degree + 1
        if any(len(row) != width for row in self.coeffs):
            raise ValueError("table rows must have degree+1 entries")
        if all(row[self.degree] == 0 for row in self.coeffs):
            raise ValueError("leading coefficient vanishes on every residue")


ZERO = QuasiPolynomial(1, -1, ())


def from_rows(period: int, rows: list[list[Fraction]]) -> QuasiPolynomial:
    """Build a quasipolynomial from raw rows, trimming vanishing top powers."""
    if len(rows) != period:
        raise ValueError("need one row per residue")
    width = max((len(row) for row in rows), default=0)
    padded = [[Fraction(c) for c in row] + [Fraction(0)] * (width - len(row)) for row in rows]
    while width > 0 and all(row[width - 1] == 0 for row in padded):
        width -= 1
    if width == 0:
        return ZERO
    return QuasiPolynomial(period, width - 1, tuple(tuple(row[:width]) for row in padded))


def evaluate(q: QuasiPolynomial, n: int) -> Fraction:
    """Q(n); n may be negative, the residue is taken in {0, ..., period-1}."""
    if q.degree == -1:
        return Fraction(0)
    row = q.coeffs[n % q.period]
    acc = Fraction(0)
    for c in reversed(row):
        acc = acc * n + c
    return acc


def minimal_period(q: QuasiPolynomial) -> tuple[int, QuasiPolynomial]:
    """Smallest period dividing the declared one, plus the canonical table."""
    if q.degree == -1:
        return 1, ZERO
    for p in divisors(q.period):
        if all(q.coeffs[r] == q.coeffs[r % p] for r in range(q.period)):
            return p, QuasiPolynomial(p, q.degree, q.coeffs[:p])
    raise AssertionError("period divides itself")


def grade(q: QuasiPolynomial) -> int:
    """Smallest d >= -1 with residue-independent coefficients above power d.

    Computed on the minimal-period table; a declared period larger than the
    minimal one would make constant coefficients look periodic.
    """
    _, canon = minimal_period(q)
    for i in range(canon.degree, -1, -1):
        if any(row[i] != canon.coeffs[0][i] for row in canon.coeffs):
            return i
    return -1


def _shifted_row(row: Row, g: int) -> list[Fraction]:
    """Coefficients of p(n - g) given those of p(n)."""
    width = len(row)
    out = [Fraction(0)] * width
    for i, c in enumerate(row):
        if c == 0:
            continue
        for j in range(i + 1):
            out[j] += c * math.comb(i, j) * (-g) ** (i - j)
    return out


def shift_difference(q: QuasiPolynomial, g: int) -> QuasiPolynomial:
    """The quasipolynomial n -> Q(n) - Q(n-g), canonicalized."""
    if g < 1:
        raise ValueError("shift must be positive")
    if q.degree == -1:
        return ZERO
    rows = []
    for r in range(q.period):
        shifted = _shifted_row(q.coeffs[(r - g) % q.period], g)
        rows.append([a - b for a, b in zip(q.coeffs[r], shifted)])
    _, canon = minimal_period(from_rows(q.period, rows))
    return canon


def fit_from_samples(
    samples: Mapping[int, Fraction | int], period: int, degree_bound: int
) -> QuasiPolynomial:
    """Interpolate an exact quasipolynomial through the given values.

    Each residue class r mod period needs at least degree_bound+1 sample
    points; its coefficients come from the exact solution of the Vandermonde
    system on the first degree_bound+1 of them.  Every surplus point is then
    checked against the fitted quasipolynomial rather than smoothed over; a
    point off it raises ``InconsistentFitError``.  The table returned is
    already reduced to its minimal period, so callers need not reduce it
    again.
    """
    if period < 1:
        raise ValueError("period must be positive")
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    by_residue: list[list[int]] = [[] for _ in range(period)]
    for n in sorted(samples):
        by_residue[n % period].append(n)
    rows: list[list[Fraction]] = []
    surplus: list[int] = []
    for r in range(period):
        points = by_residue[r]
        need = degree_bound + 1
        if len(points) < need:
            raise InsufficientSamplesError(
                f"insufficient samples for residue {r}: need {need}, got {len(points)}"
            )
        base = points[:need]
        vander = [[Fraction(n) ** i for i in range(need)] for n in base]
        rhs = [Fraction(samples[n]) for n in base]
        coeffs = rat_solve(vander, rhs)
        assert coeffs is not None  # distinct nodes: Vandermonde is invertible
        rows.append(coeffs)
        surplus += points[need:]
    _, canon = minimal_period(from_rows(period, rows))
    for n in surplus:
        if evaluate(canon, n) != samples[n]:
            raise InconsistentFitError(f"inconsistent fit: the value at n={n} is off the fitted quasipolynomial")
    return canon


def format_quasipolynomial(q: QuasiPolynomial) -> str:
    """Canonical text form: header line, then one row per residue.

    Row coefficients are printed from the top power down, as exact rationals.
    """
    lines = [f"period={q.period} degree={q.degree}"]
    for r, row in enumerate(q.coeffs):
        lines.append(f"{r}: " + " ".join(format_rational(c) for c in reversed(row)))
    return "\n".join(lines)


def parse_quasipolynomial(text: str) -> QuasiPolynomial:
    """Parse the canonical text form produced by format_quasipolynomial."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise InputFormatError("empty quasipolynomial text")
    header = lines[0].split()
    if (
        len(header) != 2
        or not header[0].startswith("period=")
        or not header[1].startswith("degree=")
    ):
        raise InputFormatError(f"bad quasipolynomial header {lines[0]!r}")
    try:
        period = int(header[0][len("period=") :])
        degree = int(header[1][len("degree=") :])
    except ValueError as exc:
        raise InputFormatError(f"bad quasipolynomial header {lines[0]!r}") from exc
    if degree == -1:
        if len(lines) != 1:
            raise InputFormatError("zero quasipolynomial must have no rows")
        return ZERO
    if len(lines) != 1 + period:
        raise InputFormatError(f"expected {period} rows, got {len(lines) - 1}")
    rows = []
    for r, line in enumerate(lines[1:]):
        prefix = f"{r}:"
        if not line.startswith(prefix):
            raise InputFormatError(f"expected row {r!r}, got {line!r}")
        parts = line[len(prefix) :].split()
        if len(parts) != degree + 1:
            raise InputFormatError(f"row {r} must carry {degree + 1} coefficients")
        rows.append([parse_rational(p) for p in reversed(parts)])
    try:
        return QuasiPolynomial(period, degree, tuple(tuple(row) for row in rows))
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
