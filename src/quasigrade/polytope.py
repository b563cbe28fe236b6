"""Rational polytopes at desk scale: V/H representations, dilate counting, Ehrhart fitting.

Polytopes are stored with exact rational vertices together with an
integer-cleared H-representation (facet inequalities a·x <= b plus affine-hull
equalities c·x = d).  Construction runs on integers wherever it can:

* From points, one double-description run on integers computes the facet
  rows and the hull equalities of their convex hull.  It then checks that
  every input point satisfies every row and every equality (a failure is an
  internal error), and keeps as vertices exactly the points that are alone
  in the meet of the zero sets of their tight rows.  The vertices are not
  derived a second time from the rows, and each facet keeps its vertex set
  as a bitmask.
* From inequalities, the same double-description routine enumerates the
  vertices of the set they describe and rejects an empty or unbounded set;
  the polytope is then built from those vertices as above.  The stored rows
  are the facets of that set in canonical form, not the input rows.
* A file with both blocks is accepted only when every vertex satisfies the
  inequality block and that block has exactly the same vertices.

Lattice points of the n-th dilate are counted exactly, slice by slice over its
bounding box.  The boxes of all dilates come from the integer numerators of
the polytope's box over one denominator, and ``dilate_counts`` counts any set
of dilates in one batched kernel call; those counts are the samples of the
fitted Ehrhart quasipolynomial, the surplus ones it is checked on included.
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
    int_rref,
    lcm_denominators,
    parse_rational,
    rat_rref,  # not called here; perfbench/spans.py requires this import site
)
from .quasipoly import QuasiPolynomial

Point = tuple[Fraction, ...]
Inequality = tuple[tuple[int, ...], int]
Equality = tuple[tuple[int, ...], int]


def _int_dot(a: Sequence[int], x: Sequence[int]) -> int:
    return sum(ai * xi for ai, xi in zip(a, x))


def _scaled(p: Point) -> tuple[list[int], int]:
    """(s·p, s) with s the lcm of the denominators of p, so s·p is integral."""
    scale = lcm_denominators(p)
    return [c.numerator * (scale // c.denominator) for c in p], scale


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


def _canonical_equality(coeffs: Sequence[int], rhs: int) -> Equality:
    """Primitive integer equality with lexicographically positive normal."""
    *ints, r = _primitive([*coeffs, rhs])
    if next((v for v in ints if v != 0), 0) < 0:
        return tuple([-v for v in ints]), -r
    return tuple(ints), r


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
    pts = sorted({tuple([Fraction(c) for c in p]) for p in vertices})
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


def affine_hull(points: Sequence[Sequence[Fraction | int]]) -> tuple[Equality, ...]:
    """Integer equations c·x = d cutting out the affine span of the points.

    They are the hull equalities of ``hrep_from_vrep``; no production path
    needs them alone.
    """
    return hrep_from_vrep(points)[1]


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
    rows += [(int(b), *[-int(c) for c in a]) for a, b in inequalities]
    for c, d in equalities:
        rows += [(int(d), *[-int(v) for v in c]), (-int(d), *[int(v) for v in c])]
    rows = sorted({tuple(_primitive(row)) for row in rows if any(row)})
    reduced, pivots, basis = int_rref(rows)
    pins = [tuple(_primitive(y)) for y in _kernel(reduced, pivots, m + 1)]
    if pins:
        starts = [rows[i] for i in basis] + pins
        rows = sorted(set(rows) | set(pins) | {tuple([-v for v in pin]) for pin in pins})
        index = {row: i for i, row in enumerate(rows)}
        basis = [index[row] for row in starts]
    rays = [ray for ray, _ in _extreme_rays(rows, basis)]
    verts = sorted(tuple([Fraction(v, ray[0]) for v in ray[1:]]) for ray in rays if ray[0] > 0)
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
    # One bitmask per row of ``inequalities``: bit j is set when vertex j is
    # tight at that row.
    facet_vertices: tuple[int, ...]

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

    Every point must satisfy every row of the hull (an internal check).  The
    slacks give each row's zero set, the bitmask of the points tight at it.
    A point is a vertex exactly when the meet of the zero sets of the rows
    tight at it is the point alone: otherwise the smallest face holding it
    has dimension 1 or more, so it holds two vertices, and both are input
    points.  Each facet's zero set is then stored as a bitmask over the
    vertices.
    """
    zeros = [0] * len(ineqs)
    tight = []
    for i, p in enumerate(pts):
        x, scale = _scaled(p)
        slacks = [b * scale - _int_dot(a, x) for a, b in ineqs]
        if min(slacks, default=0) < 0 or any(_int_dot(c, x) != d * scale for c, d in eqs):
            raise AssertionError("point violates its own hull")
        tight.append([r for r, s in enumerate(slacks) if s == 0])
        for r in tight[-1]:
            zeros[r] |= 1 << i
    kept = []
    for i, rows in enumerate(tight):
        meet = (1 << len(pts)) - 1
        for r in rows:
            meet &= zeros[r]
        if meet == 1 << i:
            kept.append(i)
    # Tuples are made from lists, which fixes their size up front: a tuple
    # grown from a generator is resized, and CPython then keeps it on the
    # free list of a size it was not taken from, which raises peak memory.
    verts = [pts[i] for i in kept]
    if strict and len(verts) != len(pts):
        extras = sorted(set(pts) - set(verts))
        shown = " ".join(str(tuple(map(str, p))) for p in extras[:3])
        raise PolytopeError(f"vertex list is not irredundant: {shown}")
    masks = [sum(1 << j for j, i in enumerate(kept) if z >> i & 1) for z in zeros]
    m = len(pts[0])
    return RationalPolytope(
        ambient_dim=m,
        vertices=tuple(verts),
        inequalities=ineqs,
        equalities=eqs,
        dim=m - len(eqs),
        facet_vertices=tuple(masks),
    )


def _from_points(points: Sequence[Sequence[Fraction | int]], strict: bool) -> RationalPolytope:
    pts = sorted({tuple([Fraction(c) for c in p]) for p in points})
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

    Samples run over n = 1, ..., D·(dim+2) with declared period
    D = lcm of vertex denominators, all counted by one ``dilate_counts``
    call: dim+1 of them on each residue fix the fit, and the fit checks the
    last one.  When ``counts`` is given, every count made here is stored in
    it under its n.
    """
    d = vertex_denominator_lcm(p)
    ns = range(1, d * (p.dim + 2) + 1)
    samples = dict(zip(ns, dilate_counts(p, ns)))
    if counts is not None:
        counts.update(samples)
    q = quasipoly.fit_from_samples(samples, d, p.dim)
    if q.degree != p.dim:
        raise InconsistentFitError("inconsistent fit: degree below the polytope dimension")
    return q


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
                x, scale = _scaled(v)
                if any(_int_dot(a, x) > b * scale for a, b in ineqs):
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
