"""References that only the tests use.

None of this runs in the package; each function here is an independent way
to get a result that the package computes another way, or a brute-force
check of a closed form.

Fraction linear algebra: ``rat_rank``, ``rat_nullspace`` and ``rat_det`` by
rational elimination, and ``affine_hull``, the hull equalities from the
Fraction nullspace of the point differences.  The package finds hull
equalities on integers (``polytope.affine_hull`` and ``hrep_from_vrep``
share one fraction-free reduction).  ``volume`` triangulates a polytope and
sums Fraction determinants; the tests compare it with the leading
coefficient of the Ehrhart quasipolynomial.

Series: ``denumerant`` counts the ways to make n from the weights by a
memoized recursion, ``pole_order_at_one`` cancels numerator roots at t = 1
to give the degree of the quasipolynomial plus one, and
``dim_quotient_bruteforce`` scans variable subsets for the quotient
dimension that ``hilbert.dim_quotient_coprime`` has in closed form.

Integer linear algebra: the Smith normal form and its solver are the span
test's earlier implementation: ``exactmath.solve_integer`` now decides
A·x = b by a column echelon form, and the tests compare its verdicts with
``snf_solve``.  ``int_det`` and ``int_solve`` are the fraction-free
determinant and square solver that the subset construction reference in
``test_construction.py`` and the Smith-form property tests call.
``rank_vertices`` and ``rank_faces`` are the rank tests that vertices and
face dimensions were decided by before the vertex-facet incidence replaced
them, and ``scanned_hilbert_quasipolynomial`` finds the Hilbert transient by
the downward scan that the closed form for ``n0`` replaced.

``polynomial`` builds a true polynomial (period 1) from ascending
coefficients, to state expected quasipolynomials.

Matrices are plain lists of rows, of integers or of rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from quasigrade import quasipoly
from quasigrade.errors import PolytopeError
from quasigrade.exactmath import int_rref, lcm_denominators, rat_rref
from quasigrade.hilbert import HilbertSeries, series_coefficients
from quasigrade.polytope import hrep_from_vrep


def polynomial(coeffs: Sequence[Fraction | int]) -> quasipoly.QuasiPolynomial:
    """True polynomial (period 1) with ascending coefficients."""
    return quasipoly.from_rows(1, [[Fraction(c) for c in coeffs]])


def _dot(a: Sequence, x: Sequence) -> Fraction:
    return sum((Fraction(ai) * xi for ai, xi in zip(a, x)), Fraction(0))


def _clear_row(coeffs: Sequence, rhs) -> tuple[tuple[int, ...], int]:
    """Scale (coeffs | rhs) to coprime integers, keeping the row direction."""
    scale = lcm_denominators(list(coeffs) + [rhs])
    ints = [int(c * scale) for c in coeffs] + [int(rhs * scale)]
    content = math.gcd(*ints) or 1
    *row, r = [v // content for v in ints]
    return tuple(row), r


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


def affine_hull(points: Sequence[Sequence[Fraction | int]]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Integer-cleared equations cutting out the affine span of the points.

    The normals are a Fraction nullspace basis of the differences to the
    first point; each equation is made primitive with a lexicographically
    positive normal, and the equations are sorted.
    """
    pts = [tuple(Fraction(c) for c in p) for p in points]
    m = len(pts[0])
    v0 = pts[0]
    dirs = [[p[j] - v0[j] for j in range(m)] for p in pts[1:]]
    eqs = []
    for normal in rat_nullspace(dirs if dirs else [[Fraction(0)] * m]):
        row, rhs = _clear_row(normal, _dot(normal, v0))
        if next(v for v in row if v) < 0:
            row, rhs = tuple(-v for v in row), -rhs
        eqs.append((row, rhs))
    return tuple(sorted(eqs))


def _triangulate(points: list) -> list[tuple]:
    eqs = affine_hull(points)
    m = len(points[0])
    k = m - len(eqs)
    if k == 0:
        return [(points[0],)]
    ineqs, _ = hrep_from_vrep(points)
    apex = min(points)
    out = []
    for a, b in ineqs:
        if _dot(a, apex) == b:
            continue
        facet_pts = [q for q in points if _dot(a, q) == b]
        for simplex in _triangulate(facet_pts):
            out.append((apex,) + simplex)
    return out


def volume(p) -> Fraction:
    """Exact Euclidean volume of a full-dimensional polytope.

    Fan triangulation from the lexicographically smallest vertex; each simplex
    contributes |det| / dim!.
    """
    if p.dim != p.ambient_dim:
        raise PolytopeError("not full-dimensional")
    m = p.ambient_dim
    total = Fraction(0)
    for simplex in _triangulate(list(p.vertices)):
        rows = [[simplex[i][j] - simplex[0][j] for j in range(m)] for i in range(1, m + 1)]
        total += abs(rat_det(rows))
    return total / math.factorial(m)


def denumerant(weights: Sequence[int], n: int) -> int:
    """Number of ways to write n as a nonnegative integer combination of the weights.

    Independent oracle for the pure series 1/prod(1 - t^{e_i}): a memoized
    count over weight prefixes, not a series expansion.
    """
    if n < 0:
        raise ValueError("target must be nonnegative")
    ws = tuple(weights)
    memo: dict[tuple[int, int], int] = {}

    def count(idx: int, rem: int) -> int:
        if rem == 0:
            return 1
        if idx == len(ws):
            return 0
        key = (idx, rem)
        if key not in memo:
            total = count(idx + 1, rem)
            if rem >= ws[idx]:
                total += count(idx, rem - ws[idx])
            memo[key] = total
        return memo[key]

    return count(0, n)


def _divide_by_one_minus_t(p: list[int]) -> list[int]:
    """Quotient q with p(t) = (1 - t)·q(t); requires p(1) = 0."""
    q = []
    acc = 0
    for coeff in p[:-1]:
        acc += coeff
        q.append(acc)
    return q


def pole_order_at_one(hs: HilbertSeries) -> int:
    """Order of the pole at t = 1 after cancelling numerator roots there."""
    d = len(hs.denominator_exponents)
    p = list(hs.numerator)
    while p and p[-1] == 0:
        p.pop()
    if not p:
        return 0
    m = 0
    while m < d and sum(p) == 0:
        p = _divide_by_one_minus_t(p)
        m += 1
    return d - m


def _reachable_degrees(weights: tuple[int, ...], cap: int) -> int:
    """Bitmask of degrees <= cap realized by monomials in the given weights."""
    reach = 1  # degree 0
    limit = (1 << (cap + 1)) - 1
    for w in weights:
        while True:
            grown = (reach | (reach << w)) & limit
            if grown == reach:
                break
            reach = grown
    return reach


def dim_quotient_bruteforce(weights: Sequence[int], pi: int, cap: int) -> int:
    """Brute-force oracle for ``hilbert.dim_quotient_coprime``.

    Monomials of positive degree <= cap with degree coprime to pi generate a
    monomial ideal; the quotient dimension is the number of variables minus a
    minimum vertex cover of the generator supports, i.e. the largest variable
    subset spanning no generator.  All subsets of the (few) variables are
    scanned; within a subset the achievable degrees are enumerated up to cap.
    """
    if pi < 1:
        raise ValueError("period must be positive")
    if cap < 1:
        raise ValueError("cap must be positive")
    ws = tuple(weights)
    d = len(ws)
    coprime_mask = 0
    for degree in range(1, cap + 1):
        if math.gcd(degree, pi) == 1:
            coprime_mask |= 1 << degree
    best = 0
    for bits in range(1 << d):
        subset = tuple(ws[i] for i in range(d) if bits & (1 << i))
        if _reachable_degrees(subset, cap) & coprime_mask:
            continue  # subset spans a generator: not independent of the ideal
        best = max(best, len(subset))
    return best


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix, by fraction-free elimination."""
    return len(int_rref(rows)[1])


def _tight_sets(points, inequalities) -> list[frozenset[int]]:
    """For each row a·x <= b, the indices of the points with a·x = b, by integer dot products."""
    scaled = []
    for p in points:
        scale = math.lcm(*(Fraction(c).denominator for c in p))
        scaled.append(([int(c * scale) for c in p], scale))
    return [
        frozenset(i for i, (x, s) in enumerate(scaled) if sum(ai * xi for ai, xi in zip(a, x)) == b * s)
        for a, b in inequalities
    ]


def rank_vertices(points, inequalities, equalities) -> list:
    """The points at which the tight rows and the equality normals have rank m."""
    m = len(points[0])
    normals = [c for c, _ in equalities]
    tight = _tight_sets(points, inequalities)
    return [
        p for i, p in enumerate(points)
        if int_rank([a for (a, _), zeros in zip(inequalities, tight) if i in zeros] + normals) == m
    ]


def rank_faces(p) -> list[tuple[tuple[int, ...], int]]:
    """(vertex indices, dimension) of every nonempty face of a polytope, sorted by (dimension, indices).

    The facet vertex sets come from integer dot products and are closed
    under intersection.  A face's dimension is m minus the rank of the
    equality normals and the normals of the facets holding all its vertices.
    """
    incidence = _tight_sets(p.vertices, p.inequalities)
    known = {frozenset(range(len(p.vertices)))} | set(incidence)
    frontier = list(known)
    while frontier:
        nxt = []
        for face in frontier:
            for facet in incidence:
                meet = face & facet
                if meet and meet not in known:
                    known.add(meet)
                    nxt.append(meet)
        frontier = nxt
    faces = []
    for face in known:
        normals = [c for c, _ in p.equalities]
        normals += [a for (a, _), facet in zip(p.inequalities, incidence) if face <= facet]
        faces.append((p.ambient_dim - int_rank(normals), tuple(sorted(face))))
    return [(indices, dim) for dim, indices in sorted(faces)]


def scanned_hilbert_quasipolynomial(hs: HilbertSeries) -> tuple[quasipoly.QuasiPolynomial, int]:
    """(Q, n0) of a series by a fit far past the transient and a downward scan.

    The fit window ends 2·window past the numerator's degree.  n0 is one
    past the largest index below the window at which the coefficient and Q
    differ, or 0.
    """
    numerator = hs.numerator
    d = len(hs.denominator_exponents)
    if not numerator:
        return quasipoly.ZERO, 0
    if d == 0:
        return quasipoly.ZERO, len(numerator)
    lcm_e = math.lcm(*hs.denominator_exponents)
    window = lcm_e * (d + 1)
    top = (len(numerator) - 1) + 2 * window
    coeffs = series_coefficients(hs, top + lcm_e)
    q = quasipoly.fit_from_samples({n: coeffs[n] for n in range(top - window + 1, top + 1)}, lcm_e, d - 1)
    assert all(quasipoly.evaluate(q, n) == coeffs[n] for n in range(top + 1, top + lcm_e + 1))
    for n in range(top - window, -1, -1):
        if quasipoly.evaluate(q, n) != coeffs[n]:
            return q, n + 1
    return q, 0


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


class _SnfWorkspace:
    """Mutable state for the Smith normal form reduction.

    Maintains D = L·A·R and A = S·D·T throughout; row operations on D update
    (L, S), column operations update (R, T).
    """

    def __init__(self, rows: Sequence[Sequence[int]], ncols: int) -> None:
        self.m = len(rows)
        self.n = ncols
        self.d = [list(row) for row in rows]
        self.l = identity(self.m)
        self.s = identity(self.m)
        self.r = identity(self.n)
        self.t = identity(self.n)

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


def _snf_workspace(rows: Sequence[Sequence[int]], ncols: int) -> _SnfWorkspace:
    ws = _SnfWorkspace(rows, ncols)
    ws.eliminate(0)
    ws.enforce_divisibility()
    return ws


def smith_normal_form(
    rows: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form of a matrix with at least one row: A = S·D·T, S and T unimodular.

    D is diagonal with nonnegative entries satisfying d_1 | d_2 | ... and
    trailing zeros.  Pivots are chosen by smallest absolute value, which keeps
    coefficient growth harmless at the matrix sizes used here.
    """
    ws = _snf_workspace(rows, len(rows[0]))
    return ws.s, ws.d, ws.t


def snf_solve(rows: Sequence[Sequence[int]], rhs: Sequence[int], ncols: int) -> list[int] | None:
    """Some integer solution x of A·x = b (A has ``ncols`` columns), or None.

    Decided through the Smith normal form: with D = L·A·R the system becomes
    D·y = L·b, which is solvable over the integers iff each diagonal entry
    divides its right-hand side and zero rows have zero right-hand side.
    """
    m = len(rows)
    if len(rhs) != m:
        raise ValueError("right-hand side length must equal the row count")
    ws = _snf_workspace(rows, ncols)
    lb = [sum(ws.l[i][j] * rhs[j] for j in range(m)) for i in range(m)]
    y = [0] * ncols
    k = min(m, ncols)
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
    for i in range(k, m):
        if lb[i] != 0:
            return None
    x = [sum(ws.r[i][j] * y[j] for j in range(ncols)) for i in range(ncols)]
    assert all(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(rows, rhs))
    return x
