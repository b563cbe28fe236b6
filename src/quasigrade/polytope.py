"""Rational polytopes at desk scale: V/H representations, dilate counting, Ehrhart fitting.

Polytopes are stored with exact rational vertices together with an
integer-cleared H-representation (facet inequalities a·x <= b plus affine-hull
equalities c·x = d).  Construction runs on integers wherever it can:

* From points, one double-description run on integers computes the facet
  rows and the hull equalities of their convex hull.  It then checks that
  every input point satisfies every row and every equality (a failure is an
  internal error), and keeps as vertices exactly the points at which the
  tight rows and the equalities have rank m.  The vertices are not derived a
  second time from the rows.
* From inequalities, the same double-description routine enumerates the
  vertices of the set they describe and rejects an empty or unbounded set;
  the polytope is then built from those vertices as above.  The stored rows
  are the facets of that set in canonical form, not the input rows.
* A file with both blocks is accepted only when every vertex satisfies the
  inequality block and that block has exactly the same vertices.

Lattice points of the n-th dilate are counted exactly, slice by slice over its
bounding box.  The boxes of all dilates come from the integer numerators of
the polytope's box over one denominator, and ``dilate_counts`` counts any set
of dilates in one batched kernel call; those counts are the samples and the
held-out checks of the fitted Ehrhart quasipolynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import quasipoly
from ._kernels import count_box, count_boxes
from .errors import InconsistentFitError, InputFormatError, PolytopeError
from .exactmath import (
    format_rational,
    int_rank,
    int_rref,
    lcm_denominators,
    parse_rational,
    rat_det,
    rat_nullspace,
    rat_rref,  # not called here; perfbench/spans.py requires this import site
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
    *ints, r = _primitive([int(c * scale) for c in coeffs] + [int(rhs * scale)])
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
    return [c.numerator * (scale // c.denominator) for c in p], scale


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


def _primitive(values: Sequence[int]) -> list[int]:
    """The integer vector divided by the gcd of its entries (not all zero)."""
    content = math.gcd(*values)
    return [v // content for v in values] if content > 1 else list(values)


def _kernel(reduced: list[list[int]], pivots: list[int], ncols: int) -> list[list[int]]:
    """A basis of the nullspace of a matrix, from its ``int_rref``.

    For each free column f: y_f = D, the last pivot, y_c = -(row of pivot c)_f
    at each pivot column c, and 0 elsewhere.
    """
    last = reduced[len(pivots) - 1][pivots[-1]]
    basis = []
    for f in range(ncols):
        if f not in pivots:
            y = [0] * ncols
            y[f] = last
            for row, c in zip(reduced, pivots):
                y[c] = -row[f]
            basis.append(y)
    return basis


def _inverse(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """A positive integer multiple of the inverse of a nonsingular matrix.

    ``int_rref`` of (M | I) is D·(I | M^-1), D the last pivot; the sign of D
    is divided out.
    """
    n = len(matrix)
    reduced, _, _ = int_rref([list(row) + [int(s == t) for s in range(n)] for t, row in enumerate(matrix)])
    sign = 1 if reduced[n - 1][n - 1] > 0 else -1
    return [[sign * v for v in row[n:]] for row in reduced]


def _extreme_rays(rows: Sequence[Sequence[int]], basis: Sequence[int]) -> list[tuple[list[int], int]]:
    """Extreme rays of the pointed cone {y : r·y >= 0 for every row r}.

    Double description (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda
    and Prodon 1996), on integers.  ``basis`` indexes d linearly independent
    rows, d the length of a row.  Their cone has d rays, the columns of the
    inverse of their matrix.  The other rows are inserted in index order.
    Each ray is kept primitive together with its zero set, the bitmask of
    the inserted rows it is tight at.  Inserting r keeps the rays with r·y >= 0 and adds, for each
    adjacent pair of rays on opposite sides, the primitive combination on
    r·y = 0.  Two rays are adjacent exactly when no third ray is tight at
    every row at which both are tight (the combinatorial test), and only
    if they share at least d - 2 such rows.  Returns (ray, zero set) pairs.
    """
    d = len(basis)
    inverse = _inverse([rows[b] for b in basis])
    everything = sum(1 << b for b in basis)
    rays = [
        (_primitive([row[j] for row in inverse]), everything & ~(1 << b))
        for j, b in enumerate(basis)
    ]
    skip = set(basis)
    for i, row in enumerate(rows):
        if i in skip:
            continue
        bit = 1 << i
        kept, pos, neg = [], [], []
        for ray, zeros in rays:
            value = _int_dot(row, ray)
            if value > 0:
                kept.append((ray, zeros))
                pos.append((value, ray, zeros))
            elif value < 0:
                neg.append((value, ray, zeros))
            else:
                kept.append((ray, zeros | bit))
        masks = [zeros for _, zeros in rays]
        for vp, p, zp in pos:
            for vn, n, zn in neg:
                common = zp & zn
                if common.bit_count() < d - 2 or sum(z & common == common for z in masks) > 2:
                    continue
                kept.append((_primitive([vp * x - vn * y for x, y in zip(n, p)]), common | bit))
        rays = kept
    return rays


def hrep_from_vrep(
    vertices: Sequence[Sequence[Fraction | int]],
) -> tuple[tuple[Inequality, ...], tuple[Equality, ...]]:
    """Facet inequalities and hull equalities of the convex hull of the input.

    With Q = s·p the points scaled to integers, one ``int_rref`` of the rows
    (1, Q) gives the hull equalities (its nullspace), the pivot coordinates
    q, and independent rows that start the double description of the cone
    {y : (1, q)·y >= 0}.  Its rays (b, -a) are the facets a·q <= b.  Each
    stored row is the primitive normal inside the direction space of the
    hull, so a lower-dimensional hull maps its normals back to it.
    """
    if not vertices:
        raise ValueError("need at least one vertex")
    pts = sorted({tuple(Fraction(c) for c in p) for p in vertices})
    m = len(pts[0])
    if m == 0:
        raise PolytopeError("degenerate input: ambient dimension 0")
    if any(len(p) != m for p in pts):
        raise ValueError("points of mixed dimension")
    scale = lcm_denominators(c for p in pts for c in p)
    homogeneous = [[1] + [c.numerator * (scale // c.denominator) for c in p] for p in pts]
    reduced, pivots, basis = int_rref(homogeneous)
    k = len(pivots) - 1
    # (1, Q)·y = 0 means y_1..m · p = -y_0 / s at every point.
    eqs = sorted(
        _canonical_equality([scale * v for v in y[1:]], -y[0])
        for y in _kernel(reduced, pivots, m + 1)
    )
    if k == 0:
        return (), tuple(eqs)
    to_ambient = None
    if k < m:
        # The reduced rows B (1..k) span the direction space, with D at their
        # own pivot coordinate and 0 at the others, so the row in that space
        # that agrees with a normal n on it is D·B^T·(B·B^T)^-1·n.
        span = [row[1:] for row in reduced[1 : k + 1]]
        inverse = _inverse([[_int_dot(u, v) for v in span] for u in span])
        sign = 1 if reduced[k][pivots[k]] > 0 else -1
        to_ambient = [
            [sign * sum(span[t][j] * inverse[t][l] for t in range(k)) for l in range(k)]
            for j in range(m)
        ]
    cone = [[row[c] for c in pivots] for row in homogeneous]
    rows = []
    for ray, zeros in _extreme_rays(cone, basis):
        normal = [-v for v in ray[1:]]
        if to_ambient is not None:
            normal = [_int_dot(t, normal) for t in to_ambient]
        tight = homogeneous[(zeros & -zeros).bit_length() - 1]
        rows.append(tuple(_primitive([scale * v for v in normal] + [_int_dot(normal, tight[1:])])))
    return tuple(sorted((row[:m], row[m]) for row in rows)), tuple(eqs)


def vrep_from_hrep(
    inequalities: Sequence[Inequality],
    equalities: Sequence[Equality],
    ambient_dim: int,
) -> list[Point]:
    """Vertices of the bounded set {a·x <= b, c·x = d}.

    Double description of the cone {x0 >= 0, b·x0 - a·x >= 0, d·x0 = c·x},
    after its rows are made primitive (repeats collapse) and its lineality,
    the nullspace of the rows, is pinned by l·x >= 0 and -l·x >= 0.  Rays
    with x0 > 0 are the vertices; with none the set is empty.  A nonempty
    set is unbounded when it has lineality or a ray with x0 = 0.
    """
    m = ambient_dim
    if m < 1:
        raise PolytopeError("degenerate input: ambient dimension 0")
    rows = [(1,) + (0,) * m]
    rows += [(int(b),) + tuple(-int(c) for c in a) for a, b in inequalities]
    for c, d in equalities:
        rows += [(int(d),) + tuple(-int(v) for v in c), (-int(d),) + tuple(int(v) for v in c)]
    rows = sorted({tuple(_primitive(row)) for row in rows if any(row)})
    reduced, pivots, basis = int_rref(rows)
    pins = [tuple(_primitive(y)) for y in _kernel(reduced, pivots, m + 1)]
    if pins:
        starts = [rows[i] for i in basis] + pins
        rows = sorted(set(rows) | set(pins) | {tuple(-v for v in pin) for pin in pins})
        index = {row: i for i, row in enumerate(rows)}
        basis = [index[row] for row in starts]
    rays = [ray for ray, _ in _extreme_rays(rows, basis)]
    verts = sorted(tuple(Fraction(v, ray[0]) for v in ray[1:]) for ray in rays if ray[0] > 0)
    if not verts:
        raise PolytopeError("empty")
    if pins or len(verts) < len(rays):
        raise PolytopeError("unbounded")
    return verts


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

    @cached_property
    def integer_box(self) -> tuple[list[int], list[int], int]:
        """``box`` as integer numerators (lo, hi) over one denominator s."""
        scaled, s = _scaled(self.box[0] + self.box[1])
        return scaled[: self.ambient_dim], scaled[self.ambient_dim :], s


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

    Its vertices go through the same hull computation as a point cloud, so
    the stored rows are the facets in canonical form, not the input rows.
    """
    return _from_points(vrep_from_hrep(inequalities, (), ambient_dim), strict=False)


def _dilate_box(p: RationalPolytope, n: int) -> tuple[list[int], list[int]]:
    """The integer box ceil(n·l) <= x <= floor(n·h) of n·P, by integer floor division."""
    if n < 0:
        raise ValueError("dilation factor must be nonnegative")
    lo, hi, s = p.integer_box
    return [-(-n * c // s) for c in lo], [n * c // s for c in hi]


def count_lattice_points(p: RationalPolytope, n: int) -> int:
    """Exact number of integer points in the n-th dilate n·P.

    Counts the integer points of the bounding box of n·P with a·x <= n·b for
    every inequality and c·x = n·d for every equality.  The 0-th dilate is the
    single point at the origin, so the count for n = 0 is always 1.
    """
    lo, hi = _dilate_box(p, n)
    ineqs = [(a, n * b) for a, b in p.inequalities]
    eqs = [(c, n * d) for c, d in p.equalities]
    return count_box(lo, hi, ineqs, eqs)


def dilate_counts(p: RationalPolytope, ns: Sequence[int]) -> list[int]:
    """``count_lattice_points(p, n)`` for each n of ``ns``, by one batched count.

    The dilates share the facet and equality normals; only their boxes and
    right-hand sides n·b and n·d differ.
    """
    boxes = [
        (*_dilate_box(p, n), [n * b for _, b in p.inequalities], [n * d for _, d in p.equalities])
        for n in ns
    ]
    return count_boxes([a for a, _ in p.inequalities], [c for c, _ in p.equalities], boxes)


def vertex_denominator_lcm(p: RationalPolytope) -> int:
    """lcm of the denominators of all vertex coordinates."""
    return lcm_denominators([c for v in p.vertices for c in v])


def ehrhart_quasipolynomial(
    p: RationalPolytope, counts: dict[int, int] | None = None
) -> QuasiPolynomial:
    """Quasipolynomial n -> #(n·P ∩ Z^m), fitted from exact counts.

    Samples run over n = 1, ..., D·(dim+1) with declared period
    D = lcm of vertex denominators; the result is canonicalized and then
    validated against D further counts.  The samples and the held-out counts
    are made by one ``dilate_counts`` call.  When ``counts`` is given, every
    count made here is stored in it under its n.
    """
    d = vertex_denominator_lcm(p)
    limit = d * (p.dim + 1)
    counts = {} if counts is None else counts
    ns = range(1, limit + d + 1)
    counts.update(zip(ns, dilate_counts(p, ns)))
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
