"""Exact scalar and linear algebra: rationals, integer matrices, Smith normal form.

Every quantity in this package is an exact rational (``fractions.Fraction``,
which stores a reduced numerator over a positive denominator) or an exact
arbitrary-precision integer.  No floating point is used anywhere; equality of
computed values is therefore structural equality.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputFormatError

# The universal scalar type.  Fraction already guarantees the invariants we
# need: denominator > 0 and gcd(|numerator|, denominator) = 1.
Rational = Fraction

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


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, tuple(int(x) for row in rows for x in row))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        return [list(self.entries[i * self.cols : (i + 1) * self.cols]) for i in range(self.rows)]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        rows = []
        orows = other.to_rows()
        for i in range(self.rows):
            acc = [0] * other.cols
            for k in range(self.cols):
                a = self.at(i, k)
                if a:
                    orow = orows[k]
                    for j in range(other.cols):
                        acc[j] += a * orow[j]
            rows.append(acc)
        return IntMatrix.from_rows(rows) if rows else IntMatrix(0, other.cols, ())

    def mul_vector(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        return [sum(self.at(i, j) * vec[j] for j in range(self.cols)) for i in range(self.rows)]


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


def rat_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank over the rationals, by exact fraction-preserving elimination."""
    _, pivots = rat_rref(rows)
    return len(pivots)


def rat_nullspace(rows: Sequence[Sequence[Fraction | int]]) -> list[list[Fraction]]:
    """Basis of the right nullspace {x : rows·x = 0}, deterministic order."""
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = rat_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -rref[r][f]
        basis.append(vec)
    return basis


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


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free elimination).

    The last pivot of ``int_rref`` is the determinant of the rows taken in
    the order of the pivot sources, so the sign of that permutation fixes it.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    mat, pivots, sources = int_rref(rows)
    if len(pivots) < n:
        return 0
    inversions = sum(a > b for i, a in enumerate(sources) for b in sources[i + 1 :])
    return (-1) ** inversions * mat[n - 1][n - 1]


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix, by fraction-free elimination."""
    return len(int_rref(rows)[1])


def int_solve(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[list[int], int] | None:
    """The solution of a square integer system as (numerators, denominator > 0).

    Returns None when the matrix is singular.  ``int_rref`` of the augmented
    matrix (A | b) is D·(I | x) with D = ±det A, and D·x is an integer vector
    (Cramer's rule).
    """
    n = len(rows)
    if len(rhs) != n or any(len(row) != n for row in rows):
        raise ValueError("int_solve needs a square system")
    if n == 0:
        return [], 1
    mat, pivots, _ = int_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots[:n] != list(range(n)):
        return None
    den = mat[n - 1][n - 1]
    num = [row[n] for row in mat[:n]]
    if den < 0:
        num, den = [-v for v in num], -den
    return num, den


def rat_det(rows: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """Exact determinant of a square rational matrix (Gaussian elimination)."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


class _SnfWorkspace:
    """Mutable state for the Smith normal form reduction.

    Maintains D = L·A·R and A = S·D·T throughout; row operations on D update
    (L, S), column operations update (R, T).
    """

    def __init__(self, a: IntMatrix) -> None:
        self.m = a.rows
        self.n = a.cols
        self.d = a.to_rows()
        self.l = IntMatrix.identity(self.m).to_rows()
        self.s = IntMatrix.identity(self.m).to_rows()
        self.r = IntMatrix.identity(self.n).to_rows()
        self.t = IntMatrix.identity(self.n).to_rows()

    # Row operations (D <- E·D): L <- E·L and S <- S·E^{-1}.
    def row_swap(self, i: int, j: int) -> None:
        for mat in (self.d, self.l):
            mat[i], mat[j] = mat[j], mat[i]
        for row in self.s:
            row[i], row[j] = row[j], row[i]

    def row_addmul(self, dst: int, src: int, k: int) -> None:
        for mat in (self.d, self.l):
            mat[dst] = [a + k * b for a, b in zip(mat[dst], mat[src])]
        for row in self.s:
            row[src] -= k * row[dst]

    def row_negate(self, i: int) -> None:
        for mat in (self.d, self.l):
            mat[i] = [-x for x in mat[i]]
        for row in self.s:
            row[i] = -row[i]

    # Column operations (D <- D·F): R <- R·F and T <- F^{-1}·T.
    def col_swap(self, i: int, j: int) -> None:
        for row in self.d:
            row[i], row[j] = row[j], row[i]
        for row in self.r:
            row[i], row[j] = row[j], row[i]
        self.t[i], self.t[j] = self.t[j], self.t[i]

    def col_addmul(self, dst: int, src: int, k: int) -> None:
        for row in self.d:
            row[dst] += k * row[src]
        for row in self.r:
            row[dst] += k * row[src]
        self.t[src] = [a - k * b for a, b in zip(self.t[src], self.t[dst])]

    def _smallest_nonzero(self, start: int) -> tuple[int, int] | None:
        best = None
        best_abs = None
        for i in range(start, self.m):
            for j in range(start, self.n):
                v = abs(self.d[i][j])
                if v != 0 and (best_abs is None or v < best_abs):
                    best, best_abs = (i, j), v
        return best

    def eliminate(self, start: int) -> None:
        """Diagonalize D[start:, start:] with smallest-pivot gcd reduction."""
        for t in range(start, min(self.m, self.n)):
            while True:
                pos = self._smallest_nonzero(t)
                if pos is None:
                    return
                if pos[0] != t:
                    self.row_swap(t, pos[0])
                if pos[1] != t:
                    self.col_swap(t, pos[1])
                if self.d[t][t] < 0:
                    self.row_negate(t)
                pivot = self.d[t][t]
                for i in range(t + 1, self.m):
                    if self.d[i][t] != 0:
                        self.row_addmul(i, t, -(self.d[i][t] // pivot))
                for j in range(t + 1, self.n):
                    if self.d[t][j] != 0:
                        self.col_addmul(j, t, -(self.d[t][j] // pivot))
                if all(self.d[i][t] == 0 for i in range(t + 1, self.m)) and all(
                    self.d[t][j] == 0 for j in range(t + 1, self.n)
                ):
                    break

    def enforce_divisibility(self) -> None:
        """Repair the chain d_1 | d_2 | ... by merging adjacent violators."""
        k = min(self.m, self.n)
        while True:
            violation = None
            for i in range(k - 1):
                a, b = self.d[i][i], self.d[i + 1][i + 1]
                if a == 0 and b != 0:
                    violation = i
                    break
                if a != 0 and b % a != 0:
                    violation = i
                    break
            if violation is None:
                return
            self.col_addmul(violation, violation + 1, 1)
            self.eliminate(violation)


def _snf_workspace(a: IntMatrix) -> _SnfWorkspace:
    ws = _SnfWorkspace(a)
    ws.eliminate(0)
    ws.enforce_divisibility()
    return ws


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: A = S·D·T with S, T unimodular.

    D is diagonal with nonnegative entries satisfying d_1 | d_2 | ... and
    trailing zeros.  Pivots are chosen by smallest absolute value, which keeps
    coefficient growth harmless at the matrix sizes used here.
    """
    ws = _snf_workspace(a)
    to_mat = lambda rows, n: IntMatrix.from_rows(rows) if rows else IntMatrix(0, n, ())
    return to_mat(ws.s, ws.m), to_mat(ws.d, ws.n), to_mat(ws.t, ws.n)


def solve_integer(a: IntMatrix, b: Sequence[int]) -> list[int] | None:
    """Some integer solution x of A·x = b, or None when none exists.

    Decided through the Smith normal form: with D = L·A·R the system becomes
    D·y = L·b, which is solvable over the integers iff each diagonal entry
    divides its right-hand side and zero rows have zero right-hand side.
    """
    if len(b) != a.rows:
        raise ValueError("right-hand side length must equal the row count")
    ws = _snf_workspace(a)
    lb = [sum(ws.l[i][j] * b[j] for j in range(a.rows)) for i in range(a.rows)]
    y = [0] * a.cols
    k = min(a.rows, a.cols)
    for i in range(k):
        di = ws.d[i][i]
        if di == 0:
            if lb[i] != 0:
                return None
        else:
            q, rem = divmod(lb[i], di)
            if rem != 0:
                return None
            y[i] = q
    for i in range(k, a.rows):
        if lb[i] != 0:
            return None
    x = [sum(ws.r[i][j] * y[j] for j in range(a.cols)) for i in range(a.cols)]
    assert a.mul_vector(x) == list(b)
    return x
