"""Exact scalar and linear algebra: rationals, integer elimination, integer solving.

Every quantity in this package is an exact rational (``fractions.Fraction``,
which stores a reduced numerator over a positive denominator) or an exact
arbitrary-precision integer.  No floating point is used anywhere; equality of
computed values is therefore structural equality.

Rational elimination serves only the Vandermonde solves of the
quasipolynomial fit; polytopes and span tests run on integers.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputFormatError

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse "a" or "a/b" (optional leading minus, b > 0) into a Fraction."""
    match = _RATIONAL_RE.match(text.strip())
    if match is None:
        raise InputFormatError(f"invalid rational {text!r}")
    num = int(match.group(1))
    den = int(match.group(2)) if match.group(2) is not None else 1
    if den == 0:
        raise InputFormatError(f"invalid rational {text!r}: zero denominator")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "a" or "a/b" with b > 0."""
    return str(Fraction(value))


def lcm_denominators(values: Iterable[Fraction]) -> int:
    """Least common multiple of the stored denominators; 1 for an empty input."""
    out = 1
    for v in values:
        out = math.lcm(out, v.denominator)
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n > 0, ascending."""
    if n <= 0:
        raise ValueError("divisors() needs a positive integer")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n > 0, ascending (empty for n = 1)."""
    if n <= 0:
        raise ValueError("prime_factors() needs a positive integer")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def rat_rref(rows: Sequence[Sequence[Fraction | int]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals; returns (rows, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def rat_solve(
    rows: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]
) -> list[Fraction] | None:
    """One exact solution of rows·x = rhs (free variables set to 0), or None."""
    if len(rows) != len(rhs):
        raise ValueError("dimension mismatch")
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    rref, pivots = rat_rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = rref[r][ncols]
    return x


def int_rref(
    rows: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[int], list[int]]:
    """Reduced row echelon form of an integer matrix, scaled to stay integral.

    Fraction-free Gauss-Jordan elimination: each Bareiss step is applied to
    every row but the pivot row, above it as well as below, so every entry
    stays a minor of the input and each division is exact.  Returns (rows,
    pivot columns, pivot sources).  The first r = len(pivots) rows are D
    times the reduced echelon form, where D, the last pivot, is nonzero and
    sits at every pivot position; the other rows are zero.  ``sources[t]``
    is the index of the input row that became pivot row t; those input rows
    are linearly independent.
    """
    mat = [list(row) for row in rows]
    order = list(range(len(mat)))
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        if r == len(mat):
            break
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        order[r], order[pivot_row] = order[pivot_row], order[r]
        top = mat[r]
        pivot = top[c]
        for i, row in enumerate(mat):
            lead = row[c]
            if i == r:
                continue
            if lead:
                mat[i] = [(pivot * x - lead * y) // prev for x, y in zip(row, top)]
            elif pivot != prev:
                mat[i] = [pivot * x // prev for x in row]
        prev = pivot
        pivots.append(c)
        r += 1
    return mat, pivots, order[:r]


def solve_integer(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> list[int] | None:
    """Some integer solution x of A·x = b, or None when none exists.

    Row by row, Euclid-style unimodular column operations on the columns of
    [A; I] leave one pivot among the columns that are still free, so A becomes
    a lower echelon form H = A·U with U below it.  H·y = b is then solved by
    forward substitution; it has no integer solution exactly when a pivot
    does not divide its residual, or a row without a pivot keeps a nonzero
    residual.  The solution is x = U·y.
    """
    if len(rhs) != len(rows):
        raise ValueError("right-hand side length must equal the row count")
    n = len(rows[0]) if rows else 0
    free = [[row[j] for row in rows] + [int(t == j) for t in range(n)] for j in range(n)]
    done: list[list[int]] = []
    y: list[int] = []
    for i, b in enumerate(rhs):
        live = [col for col in free if col[i]]
        while len(live) > 1:
            pivot = min(live, key=lambda col: abs(col[i]))
            for col in live:
                if col is not pivot:
                    q = col[i] // pivot[i]
                    col[:] = [a - q * p for a, p in zip(col, pivot)]
            live = [col for col in live if col[i]]
        residual = b - sum(col[i] * v for col, v in zip(done, y))
        if not live:
            if residual:
                return None
            continue
        q, r = divmod(residual, live[0][i])
        if r:
            return None
        done.append(live[0])
        y.append(q)
        free = [col for col in free if col is not live[0]]
    m = len(rows)
    x = [sum(col[m + t] * v for col, v in zip(done, y)) for t in range(n)]
    assert all(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(rows, rhs))
    return x

