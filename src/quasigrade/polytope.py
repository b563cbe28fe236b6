"""Rational polytopes at desk scale: V/H representations, dilate counting, Ehrhart fitting.

Polytopes are stored with exact rational vertices together with an
integer-cleared H-representation (facet inequalities a·x <= b plus affine-hull
equalities c·x = d).  Construction runs on integers wherever it can:

* From points, it computes the facet rows and the hull equalities of their
  convex hull.  It then checks that every input point satisfies every row
  and every equality (a failure is an internal error), and keeps as vertices
  exactly the points at which the tight rows and the equalities have rank m.
  The vertices are not derived a second time from the rows.
* From inequalities, it enumerates the vertices of the set they describe,
  rejects an empty or unbounded set, and then builds the polytope from those
  vertices as above, except that the facet scan visits only subsets of the
  vertices tight at one input row.  The stored rows are the facets of that
  set in canonical form, not the input rows.
* A file with both blocks is accepted only when every vertex satisfies the
  inequality block and that block has exactly the same vertices.

Lattice points of the n-th dilate are counted exactly, slice by slice over the
bounding box, and those counts are the samples and the held-out checks of the
fitted Ehrhart quasipolynomial.
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
    int_det,
    int_rank,
    int_solve,
    lcm_denominators,
    parse_rational,
    rat_det,
    rat_nullspace,
    rat_rref,
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


def _int_dot(a: Sequence[int], x: Sequence[int]) -> int:
    return sum(ai * xi for ai, xi in zip(a, x))


def _scaled(p: Point) -> tuple[list[int], int]:
    """(s·p, s) with s the lcm of the denominators of p, so s·p is integral."""
    scale = lcm_denominators(p)
    return [int(c * scale) for c in p], scale


def incidence(points: Sequence[Point], rows: Sequence[Inequality]) -> list[frozenset[int]]:
    """For each row a·x <= b, the indices of the points with a·x = b.

    Each point is scaled to integers once, and the rows are compared by
    integer dot products.
    """
    scaled = [_scaled(p) for p in points]
    return [
        frozenset(i for i, (x, s) in enumerate(scaled) if _int_dot(a, x) == b * s)
        for a, b in rows
    ]


def _minor_normal(rows: Sequence[Sequence[int]]) -> list[int]:
    """Signed maximal minors of a (k-1) x k integer matrix.

    The vector is orthogonal to every row.  It is zero exactly when the rows
    are linearly dependent, and otherwise spans their orthogonal complement.
    """
    return [
        (-1) ** j * int_det([row[:j] + row[j + 1 :] for row in rows])
        for j in range(len(rows) + 1)
    ]


def hrep_from_vrep(
    vertices: Sequence[Sequence[Fraction | int]],
) -> tuple[tuple[Inequality, ...], tuple[Equality, ...]]:
    """Facet inequalities and hull equalities of the convex hull of the input.

    Each point is mapped once to integers: its pivot coordinates (those of
    the reduced echelon form of the point differences) times their common
    denominator.  On the affine hull, of dimension k, this map is an affine
    isomorphism onto Q^k.  There a k-subset of the points spans a hyperplane
    exactly when the signed (k-1)-minors of its differences are not all
    zero, and those minors are its normal; the hyperplane is a facet when
    every point lies on one closed side.  Subsets inside the points of a
    facet already found are skipped, so each facet is found once, and its
    row is the primitive normal inside the direction space of the hull.
    """
    if not vertices:
        raise ValueError("need at least one vertex")
    pts = sorted({tuple(Fraction(c) for c in p) for p in vertices})
    m = len(pts[0])
    if m == 0:
        raise PolytopeError("degenerate input: ambient dimension 0")
    if any(len(p) != m for p in pts):
        raise ValueError("points of mixed dimension")
    return _scan_facets(pts, [range(len(pts))])


def _scan_facets(
    pts: list[Point], groups: Sequence[Sequence[int]]
) -> tuple[tuple[Inequality, ...], tuple[Equality, ...]]:
    """The subset scan of ``hrep_from_vrep`` over the k-subsets of each group.

    ``pts`` are sorted and distinct, and each group lists indices into them.
    The rows are those of the full scan as long as the points of every facet
    lie inside one of the groups.
    """
    m = len(pts[0])
    eqs = affine_hull(pts)
    k = m - len(eqs)
    if k == 0:
        return (), eqs
    rref, pivots = rat_rref([[p[j] - pts[0][j] for j in range(m)] for p in pts[1:]])
    basis = rref[:k]
    # dual = G^-1 · basis, G the Gram matrix of the basis, read off the
    # reduced form of (G | basis).  Its rows lie in the direction space, and
    # dual[l]·d is the l-th pivot coordinate of any direction d.
    dual = [row[k:] for row in rat_rref([[_dot(b, c) for c in basis] + b for b in basis])[0]]
    scale = lcm_denominators(p[j] for p in pts for j in pivots)
    coords = [tuple(int(p[j] * scale) for j in pivots) for p in pts]
    facet_masks: list[int] = []
    rows: list[Inequality] = []
    for subset in (s for group in groups for s in combinations(group, k)):
        bits = sum(1 << i for i in subset)
        if any(bits & ~mask == 0 for mask in facet_masks):
            continue
        q0 = coords[subset[0]]
        normal = _minor_normal([[a - b for a, b in zip(coords[i], q0)] for i in subset[1:]])
        if not any(normal):
            continue
        rhs = _int_dot(normal, q0)
        values = [_int_dot(normal, q) for q in coords]
        above = max(values) > rhs
        if above and min(values) < rhs:
            continue
        if above:
            normal = [-c for c in normal]
        facet_masks.append(sum(1 << i for i, v in enumerate(values) if v == rhs))
        ambient = [_dot(normal, column) for column in zip(*dual)]
        rows.append(_clear_row(ambient, _dot(ambient, pts[subset[0]])))
    return tuple(sorted(rows)), eqs


def vrep_from_hrep(
    inequalities: Sequence[Inequality],
    equalities: Sequence[Equality],
    ambient_dim: int,
) -> list[Point]:
    """Vertices of the bounded set {a·x <= b, c·x = d}.

    First the equations l·x = 0, for l spanning the nullspace of all normals
    (the lineality space), are added: the set stays nonempty exactly when it
    was, and the normals get rank m, so a nonempty set has a vertex.  The
    candidates solve square systems of the independent equalities, those
    equations and the missing number of inequalities, by fraction-free
    elimination; the feasible ones are the vertices.  With none the set is
    empty.  A nonempty set is unbounded when it has a lineality space or a
    ray, spanned by the minors of m-1 normals, along which it recedes.
    """
    m = ambient_dim
    if m < 1:
        raise PolytopeError("degenerate input: ambient dimension 0")
    ineqs = [(tuple(int(c) for c in a), int(b)) for a, b in inequalities]
    eqs = [(tuple(int(c) for c in a), int(b)) for a, b in equalities]
    normals = [a for a, _ in ineqs] + [c for c, _ in eqs]
    lineality = rat_nullspace(normals if normals else [[0] * m])
    eq_rref, eq_pivots = rat_rref([list(c) + [d] for c, d in eqs])
    if m in eq_pivots:
        raise PolytopeError("empty")
    pinned = [_clear_row(row[:m], row[m]) for row in eq_rref[: len(eq_pivots)]]
    pinned += [_clear_row(v, Fraction(0)) for v in lineality]
    seen: set[Point] = set()
    for subset in combinations(ineqs, m - len(pinned)):
        system = pinned + list(subset)
        solved = int_solve([a for a, _ in system], [b for _, b in system])
        if solved is None:
            continue
        num, den = solved
        if all(_int_dot(a, num) <= b * den for a, b in ineqs):
            seen.add(tuple(Fraction(v, den) for v in num))
    if not seen:
        raise PolytopeError("empty")
    if lineality:
        raise PolytopeError("unbounded")
    for subset in combinations(normals, m - 1):
        ray = _minor_normal(subset)
        if not any(ray):
            continue
        for direction in (ray, [-x for x in ray]):
            if all(_int_dot(a, direction) <= 0 for a, _ in ineqs) and all(
                _int_dot(c, direction) == 0 for c, _ in eqs
            ):
                raise PolytopeError("unbounded")
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


def _assemble(
    pts: list[Point], ineqs: tuple[Inequality, ...], eqs: tuple[Equality, ...], strict: bool
) -> RationalPolytope:
    """Polytope from sorted distinct points and the rows of their hull.

    Every point must satisfy every row of the hull (an internal check).  A
    point is a vertex exactly when the normals of the rows tight at it,
    together with the equality normals, have rank m.
    """
    m = len(pts[0])
    eq_normals = [c for c, _ in eqs]
    verts = []
    for p in pts:
        x, scale = _scaled(p)
        slacks = [b * scale - _int_dot(a, x) for a, b in ineqs]
        if min(slacks, default=0) < 0 or any(_int_dot(c, x) != d * scale for c, d in eqs):
            raise AssertionError("point violates its own hull")
        tight = [a for (a, _), s in zip(ineqs, slacks) if s == 0]
        if int_rank(tight + eq_normals) == m:
            verts.append(p)
    if strict and len(verts) != len(pts):
        extras = sorted(set(pts) - set(verts))
        shown = " ".join(str(tuple(map(str, p))) for p in extras[:3])
        raise PolytopeError(f"vertex list is not irredundant: {shown}")
    return RationalPolytope(
        ambient_dim=m,
        vertices=tuple(verts),
        inequalities=ineqs,
        equalities=eqs,
        dim=m - len(eqs),
    )


def _from_points(points: Sequence[Sequence[Fraction | int]], strict: bool) -> RationalPolytope:
    pts = sorted({tuple(Fraction(c) for c in p) for p in points})
    return _assemble(pts, *hrep_from_vrep(pts), strict=strict)


def from_vertices(points: Sequence[Sequence[Fraction | int]]) -> RationalPolytope:
    """Polytope from an irredundant vertex list (rejects interior points)."""
    return _from_points(points, strict=True)


def from_point_cloud(points: Sequence[Sequence[Fraction | int]]) -> RationalPolytope:
    """Convex hull of arbitrary points; redundant ones are dropped."""
    return _from_points(points, strict=False)


def from_inequalities(
    inequalities: Sequence[Inequality], ambient_dim: int
) -> RationalPolytope:
    """Polytope from inequalities alone; must describe a bounded nonempty set.

    Every facet of the set is the set of its points on some input row, so
    the facet scan visits only the subsets of the vertices tight at one
    input row.  A row tight at every vertex holds no facet and is left out.
    """
    verts = vrep_from_hrep(inequalities, (), ambient_dim)
    tight = {s for s in incidence(verts, inequalities) if len(s) < len(verts)}
    return _assemble(verts, *_scan_facets(verts, sorted(map(sorted, tight))), strict=False)


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


def ehrhart_quasipolynomial(
    p: RationalPolytope, counts: dict[int, int] | None = None
) -> QuasiPolynomial:
    """Quasipolynomial n -> #(n·P ∩ Z^m), fitted from exact counts.

    Samples run over n = 1, ..., D·(dim+1) with declared period
    D = lcm of vertex denominators; the result is canonicalized and then
    validated against D further counts.  When ``counts`` is given, every
    count made here is stored in it under its n.
    """
    d = vertex_denominator_lcm(p)
    limit = d * (p.dim + 1)
    counts = {} if counts is None else counts
    for n in range(1, limit + d + 1):
        counts[n] = count_lattice_points(p, n)
    q = quasipoly.fit_from_samples({n: counts[n] for n in range(1, limit + 1)}, d, p.dim)
    for n in range(limit + 1, limit + d + 1):
        if quasipoly.evaluate(q, n) != counts[n]:
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
