"""Rational polytopes at desk scale: V/H representations, dilate counting, Ehrhart fitting.

Polytopes are stored with exact rational vertices together with an
integer-cleared H-representation (facet inequalities a·x <= b plus affine-hull
equalities c·x = d).  Construction always verifies that both descriptions cut
out the same set.  Lattice points of the n-th dilate are counted exactly, slice
by slice over the bounding box, and those counts are the samples and the
held-out checks of the fitted Ehrhart quasipolynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Sequence

from . import quasipoly
from ._kernels import count_box
from .errors import InconsistentFitError, InputFormatError, PolytopeError
from .exactmath import (
    format_rational,
    lcm_denominators,
    parse_rational,
    rat_det,
    rat_nullspace,
    rat_rank,
    rat_rref,
    rat_solve,
)
from .quasipoly import QuasiPolynomial

Point = tuple[Fraction, ...]
Inequality = tuple[tuple[int, ...], int]
Equality = tuple[tuple[int, ...], int]


def _dot(a: Sequence, x: Sequence) -> Fraction:
    return sum((Fraction(ai) * xi for ai, xi in zip(a, x)), Fraction(0))


def _clear_row(coeffs: Sequence[Fraction], rhs: Fraction) -> tuple[tuple[int, ...], int]:
    """Scale (coeffs | rhs) to coprime integers, keeping the row direction."""
    scale = lcm_denominators(list(coeffs) + [rhs])
    ints = [int(c * scale) for c in coeffs]
    r = int(rhs * scale)
    content = 0
    for v in ints + [r]:
        content = math.gcd(content, abs(v))
    if content > 1:
        ints = [v // content for v in ints]
        r //= content
    return tuple(ints), r


def _canonical_equality(coeffs: Sequence[Fraction], rhs: Fraction) -> Equality:
    """Integer-primitive equality with lexicographically positive normal."""
    ints, r = _clear_row(coeffs, rhs)
    lead = next((v for v in ints if v != 0), 0)
    if lead < 0:
        ints = tuple(-v for v in ints)
        r = -r
    return ints, r


def affine_hull(points: Sequence[Sequence[Fraction | int]]) -> tuple[Equality, ...]:
    """Integer-cleared equations cutting out the affine span of the points."""
    if not points:
        raise ValueError("need at least one point")
    pts = [tuple(Fraction(c) for c in p) for p in points]
    m = len(pts[0])
    v0 = pts[0]
    dirs = [[p[j] - v0[j] for j in range(m)] for p in pts[1:]]
    normals = rat_nullspace(dirs if dirs else [[Fraction(0)] * m])
    eqs = [_canonical_equality(c, _dot(c, v0)) for c in normals]
    return tuple(sorted(eqs))


def _affine_rank(points: Sequence[Point]) -> int:
    if len(points) <= 1:
        return 0
    v0 = points[0]
    return rat_rank([[p[j] - v0[j] for j in range(len(v0))] for p in points[1:]])


def hrep_from_vrep(
    vertices: Sequence[Sequence[Fraction | int]],
) -> tuple[tuple[Inequality, ...], tuple[Equality, ...]]:
    """Facet inequalities and hull equalities of the convex hull of the input.

    Candidate hyperplanes are spanned by dim-subsets of the points inside the
    affine hull; those keeping all points on one closed side and touching a
    (dim-1)-dimensional subset are the facets.
    """
    if not vertices:
        raise ValueError("need at least one vertex")
    pts = sorted({tuple(Fraction(c) for c in p) for p in vertices})
    m = len(pts[0])
    if m == 0:
        raise PolytopeError("degenerate input: ambient dimension 0")
    if any(len(p) != m for p in pts):
        raise ValueError("points of mixed dimension")
    eqs = affine_hull(pts)
    k = m - len(eqs)
    if k == 0:
        return (), eqs
    dir_rows = [[p[j] - pts[0][j] for j in range(m)] for p in pts[1:]]
    rref, pivots = rat_rref(dir_rows)
    basis = rref[: len(pivots)]
    found: set[Inequality] = set()
    for subset in combinations(pts, k):
        t0 = subset[0]
        rows = [[_dot(b, [t[j] - t0[j] for j in range(m)]) for b in basis] for t in subset[1:]]
        null = rat_nullspace(rows if rows else [[Fraction(0)] * k])
        if len(null) != 1:
            continue
        normal = [
            sum((null[0][l] * basis[l][j] for l in range(k)), Fraction(0)) for j in range(m)
        ]
        rhs = _dot(normal, t0)
        values = [_dot(normal, p) for p in pts]
        if all(v <= rhs for v in values):
            pass
        elif all(v >= rhs for v in values):
            normal = [-c for c in normal]
            rhs = -rhs
            values = [-v for v in values]
        else:
            continue
        incident = [p for p, v in zip(pts, values) if v == rhs]
        if _affine_rank(incident) != k - 1:
            continue
        found.add(_clear_row(normal, rhs))
    return tuple(sorted(found)), eqs


def _fm_feasible(rows: list[tuple[list[Fraction], Fraction]], m: int) -> bool:
    """Fourier-Motzkin feasibility of the system {a·x <= b}."""
    current = rows
    for j in range(m):
        zero, pos, neg = [], [], []
        for a, b in current:
            if a[j] == 0:
                zero.append((a, b))
            elif a[j] > 0:
                pos.append((a, b))
            else:
                neg.append((a, b))
        combined = zero
        for ap, bp in pos:
            for an, bn in neg:
                scale_p = -an[j]
                scale_n = ap[j]
                row = [scale_p * x + scale_n * y for x, y in zip(ap, an)]
                combined.append((row, scale_p * bp + scale_n * bn))
        seen: set[tuple] = set()
        current = []
        for a, b in combined:
            key = _clear_row(a, b)
            if key not in seen:
                seen.add(key)
                current.append(([Fraction(v) for v in key[0]], Fraction(key[1])))
    return all(b >= 0 for _, b in current)


def vrep_from_hrep(
    inequalities: Sequence[Inequality],
    equalities: Sequence[Equality],
    ambient_dim: int,
) -> list[Point]:
    """Vertices of the bounded set {a·x <= b, c·x = d}.

    Candidates are the solutions of maximal-rank square subsystems of active
    constraints, filtered by feasibility.  Raises on empty or unbounded input.
    """
    m = ambient_dim
    if m < 1:
        raise PolytopeError("degenerate input: ambient dimension 0")
    ineqs = [(tuple(int(c) for c in a), int(b)) for a, b in inequalities]
    eqs = [(tuple(int(c) for c in a), int(b)) for a, b in equalities]
    fm_rows = [([Fraction(c) for c in a], Fraction(b)) for a, b in ineqs]
    for c, d in eqs:
        fm_rows.append(([Fraction(v) for v in c], Fraction(d)))
        fm_rows.append(([Fraction(-v) for v in c], Fraction(-d)))
    if not _fm_feasible(fm_rows, m):
        raise PolytopeError("empty")
    normals = [list(a) for a, _ in ineqs] + [list(c) for c, _ in eqs]
    if rat_rank(normals if normals else [[0] * m]) < m:
        raise PolytopeError("unbounded")
    for subset in combinations(range(len(normals)), m - 1):
        null = rat_nullspace([normals[i] for i in subset] if subset else [[0] * m])
        if len(null) != 1:
            continue
        ray = null[0]
        for direction in (ray, [-x for x in ray]):
            if all(_dot(a, direction) <= 0 for a, _ in ineqs) and all(
                _dot(c, direction) == 0 for c, _ in eqs
            ):
                raise PolytopeError("unbounded")
    eq_rows = [list(c) for c, _ in eqs]
    eq_rhs = [d for _, d in eqs]
    need = m - rat_rank(eq_rows if eq_rows else [[0] * m])
    seen: set[Point] = set()
    for subset in combinations(range(len(ineqs)), need):
        rows = eq_rows + [list(ineqs[i][0]) for i in subset]
        rhs = eq_rhs + [ineqs[i][1] for i in subset]
        if rat_rank(rows) < m:
            continue
        x = rat_solve(rows, rhs)
        if x is None:
            continue
        if all(_dot(a, x) <= b for a, b in ineqs) and all(_dot(c, x) == d for c, d in eqs):
            seen.add(tuple(x))
    assert seen, "feasible bounded system must have a vertex"
    return sorted(seen)


@dataclass(frozen=True)
class RationalPolytope:
    """Bounded convex hull of finitely many rational points, with its H-form."""

    ambient_dim: int
    vertices: tuple[Point, ...]
    inequalities: tuple[Inequality, ...]
    equalities: tuple[Equality, ...]
    dim: int

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("polytope needs at least one vertex")
        if any(len(v) != self.ambient_dim for v in self.vertices):
            raise ValueError("vertex of wrong dimension")

    @cached_property
    def box(self) -> tuple[Point, Point]:
        """Coordinatewise minimum and maximum of the vertices."""
        columns = list(zip(*self.vertices))
        return tuple(map(min, columns)), tuple(map(max, columns))


def _assemble(points: Sequence[Point], strict: bool) -> RationalPolytope:
    pts = sorted({tuple(Fraction(c) for c in p) for p in points})
    m = len(pts[0])
    ineqs, eqs = hrep_from_vrep(pts)
    verts = vrep_from_hrep(ineqs, eqs, m)
    if strict and set(verts) != set(pts):
        extras = sorted(set(pts) - set(verts))
        shown = " ".join(str(tuple(map(str, p))) for p in extras[:3])
        raise PolytopeError(f"vertex list is not irredundant: {shown}")
    for v in verts:
        if any(_dot(a, v) > b for a, b in ineqs) or any(_dot(c, v) != d for c, d in eqs):
            raise AssertionError("vertex violates its own hull")
    return RationalPolytope(
        ambient_dim=m,
        vertices=tuple(verts),
        inequalities=ineqs,
        equalities=eqs,
        dim=m - len(eqs),
    )


def from_vertices(points: Sequence[Sequence[Fraction | int]]) -> RationalPolytope:
    """Polytope from an irredundant vertex list (rejects interior points)."""
    return _assemble([tuple(Fraction(c) for c in p) for p in points], strict=True)


def from_point_cloud(points: Sequence[Sequence[Fraction | int]]) -> RationalPolytope:
    """Convex hull of arbitrary points; redundant ones are dropped."""
    return _assemble([tuple(Fraction(c) for c in p) for p in points], strict=False)


def from_inequalities(
    inequalities: Sequence[Inequality], ambient_dim: int
) -> RationalPolytope:
    """Polytope from inequalities alone; must describe a bounded nonempty set."""
    verts = vrep_from_hrep(inequalities, (), ambient_dim)
    return _assemble(verts, strict=False)


def count_lattice_points(p: RationalPolytope, n: int) -> int:
    """Exact number of integer points in the n-th dilate n·P.

    Counts the integer points of the bounding box of n·P with a·x <= n·b for
    every inequality and c·x = n·d for every equality.  The 0-th dilate is the
    single point at the origin, so the count for n = 0 is always 1.
    """
    if n < 0:
        raise ValueError("dilation factor must be nonnegative")
    lo = [math.ceil(n * c) for c in p.box[0]]
    hi = [math.floor(n * c) for c in p.box[1]]
    ineqs = [(a, n * b) for a, b in p.inequalities]
    eqs = [(c, n * d) for c, d in p.equalities]
    return count_box(lo, hi, ineqs, eqs)


def vertex_denominator_lcm(p: RationalPolytope) -> int:
    """lcm of the denominators of all vertex coordinates."""
    return lcm_denominators([c for v in p.vertices for c in v])


def ehrhart_quasipolynomial(p: RationalPolytope) -> QuasiPolynomial:
    """Quasipolynomial n -> #(n·P ∩ Z^m), fitted from exact counts.

    Samples run over n = 1, ..., D·(dim+1) with declared period
    D = lcm of vertex denominators; the result is canonicalized and then
    validated against D further counts.
    """
    d = vertex_denominator_lcm(p)
    limit = d * (p.dim + 1)
    samples = {n: count_lattice_points(p, n) for n in range(1, limit + 1)}
    q = quasipoly.fit_from_samples(samples, d, p.dim)
    for n in range(limit + 1, limit + d + 1):
        if quasipoly.evaluate(q, n) != count_lattice_points(p, n):
            raise InconsistentFitError(f"inconsistent fit: dilate count at n={n} disagrees")
    if q.degree != p.dim:
        raise InconsistentFitError("inconsistent fit: degree below the polytope dimension")
    return q


def _triangulate(points: list[Point]) -> list[tuple[Point, ...]]:
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


def volume(p: RationalPolytope) -> Fraction:
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


def parse_polytope(text: str) -> RationalPolytope:
    """Parse the polytope text format.

    Line 1 is ``ambient <m>``; an optional block ``vertices <k>`` with k rows
    of m rationals; an optional block ``inequalities <l>`` with l rows of m+1
    integers (a·x <= b).  At least one block must be present; when both are,
    they must describe the same polytope.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputFormatError("empty polytope file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "ambient":
        raise InputFormatError(f"expected 'ambient <m>', got {lines[0]!r}")
    try:
        m = int(head[1])
    except ValueError as exc:
        raise InputFormatError(f"bad ambient dimension {head[1]!r}") from exc
    if m < 1:
        raise InputFormatError("ambient dimension must be positive")
    idx = 1
    verts: list[Point] | None = None
    ineqs: list[Inequality] | None = None
    while idx < len(lines):
        header = lines[idx].split()
        if len(header) != 2 or header[0] not in ("vertices", "inequalities"):
            raise InputFormatError(f"unexpected line {lines[idx]!r}")
        try:
            count = int(header[1])
        except ValueError as exc:
            raise InputFormatError(f"bad block count in {lines[idx]!r}") from exc
        if count < 1:
            raise InputFormatError(f"bad block count in {lines[idx]!r}")
        rows = lines[idx + 1 : idx + 1 + count]
        if len(rows) != count:
            raise InputFormatError(f"block {header[0]!r} is truncated")
        if header[0] == "vertices":
            if verts is not None:
                raise InputFormatError("duplicate vertices block")
            verts = []
            for row in rows:
                parts = row.split()
                if len(parts) != m:
                    raise InputFormatError(f"vertex row {row!r} must have {m} coordinates")
                verts.append(tuple(parse_rational(p) for p in parts))
        else:
            if ineqs is not None:
                raise InputFormatError("duplicate inequalities block")
            ineqs = []
            for row in rows:
                parts = row.split()
                if len(parts) != m + 1:
                    raise InputFormatError(f"inequality row {row!r} must have {m + 1} integers")
                try:
                    nums = [int(x) for x in parts]
                except ValueError as exc:
                    raise InputFormatError(f"inequality row {row!r} must have {m + 1} integers") from exc
                ineqs.append((tuple(nums[:m]), nums[m]))
        idx += 1 + count
    if verts is None and ineqs is None:
        raise InputFormatError("need a vertices or inequalities block")
    if verts is not None:
        poly = from_vertices(verts)
        if ineqs is not None:
            for v in poly.vertices:
                if any(_dot(a, v) > b for a, b in ineqs):
                    raise PolytopeError("vertex and inequality blocks disagree")
            from_h = vrep_from_hrep(ineqs, (), m)
            if set(from_h) != set(poly.vertices):
                raise PolytopeError("vertex and inequality blocks disagree")
        return poly
    assert ineqs is not None
    return from_inequalities(ineqs, m)


def load_polytope(path: str) -> RationalPolytope:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_polytope(fh.read())


def format_polytope(p: RationalPolytope) -> str:
    """Serialize in the polytope text format (both blocks, canonical order)."""
    lines = [f"ambient {p.ambient_dim}"]
    lines.append(f"vertices {len(p.vertices)}")
    for v in p.vertices:
        lines.append(" ".join(format_rational(c) for c in v))
    rows = [(a, b) for a, b in p.inequalities]
    for c, d in p.equalities:
        rows.append((c, d))
        rows.append((tuple(-x for x in c), -d))
    if rows:
        lines.append(f"inequalities {len(rows)}")
        for a, b in rows:
            lines.append(" ".join(str(x) for x in a) + f" {b}")
    return "\n".join(lines) + "\n"
