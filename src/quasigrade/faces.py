"""Face enumeration and the lattice-point test on affine spans of faces.

The central question here: what is the smallest delta such that the affine
span of every delta-dimensional face of the polytope contains an integer
point?  That threshold (delta_star) strictly bounds the grade of the Ehrhart
quasipolynomial from above, and the verifier in this module recomputes both
sides of that inequality on concrete polytopes.

Faces come from the vertex-facet incidence that the polytope stores as one
bitmask per facet, and their dimensions from the grading of the face
lattice; no rank is computed.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import polytope as _polytope
from . import quasipoly
from .exactmath import solve_integer
from .polytope import Equality, RationalPolytope
from .quasipoly import QuasiPolynomial


@dataclass(frozen=True)
class Face:
    """A face of a parent polytope, recorded by the vertices it contains.

    ``dim`` is the face's dimension, read off the graded face lattice.
    ``hull_equalities`` cut out the affine span of the face: the equalities
    of the polytope, then every facet row that holds all of its vertices.
    The rows may be redundant.
    """

    vertex_indices: tuple[int, ...]
    dim: int
    hull_equalities: tuple[Equality, ...]


def enumerate_faces(p: RationalPolytope) -> list[Face]:
    """All nonempty faces, including every vertex and the polytope itself.

    A face is determined by its vertex set, kept as a bitmask.  Faces are
    exactly the intersections of facet subsets, so the facet vertex sets
    (``p.facet_vertices``) are closed under intersection, starting from the
    whole vertex set; empty intersections are dropped.  The face lattice is
    graded (Kaibel and Pfetsch 2002): a vertex has dimension 0, and any other
    face one more than the largest dimension among its proper subfaces.
    Those include its own facets, each the meet of the face with a facet of
    the polytope, so the meets with the facets are enough.  The polytope's
    equalities and the facet rows tight at all vertices of a face cut out its
    affine span; they are its hull equalities.  Results are sorted by (dim,
    vertex indices).
    """
    facets = p.facet_vertices
    known = {(1 << len(p.vertices)) - 1, *facets}
    frontier = list(known)
    while frontier:
        nxt = []
        for face in frontier:
            for facet in facets:
                meet = face & facet
                if meet and meet not in known:
                    known.add(meet)
                    nxt.append(meet)
        frontier = nxt
    dims: dict[int, int] = {}
    for face in sorted(known, key=int.bit_count):
        below = [dims[meet] for facet in facets if (meet := face & facet) and meet != face]
        dims[face] = 1 + max(below) if below else 0
    faces = []
    for face, dim in dims.items():
        # Lists, not generators, for the tuples (see ``polytope._assemble``).
        rows = [row for row, facet in zip(p.inequalities, facets) if face & ~facet == 0]
        indices = [i for i in range(face.bit_length()) if face >> i & 1]
        faces.append(Face(vertex_indices=tuple(indices), dim=dim, hull_equalities=p.equalities + tuple(rows)))
    faces.sort(key=lambda f: (f.dim, f.vertex_indices))
    return faces


def affine_span_contains_lattice_point(face: Face) -> bool:
    """Whether the affine span of the face holds any point of Z^m.

    The span is the solution set of the integer hull equations, so this is an
    integer linear system, decided by a column echelon form and forward
    substitution (``solve_integer``).
    """
    if not face.hull_equalities:
        return True
    rows = [c for c, _ in face.hull_equalities]
    rhs = [d for _, d in face.hull_equalities]
    return solve_integer(rows, rhs) is not None


def _delta_star(face_results: tuple[tuple[Face, bool], ...], dim: int) -> int | None:
    """Smallest delta at which every delta-face passed, from sorted span results.

    None when the top face (the polytope, last in the sorted list) fails.
    The pass condition is monotone in delta (each higher face contains a
    passing lower face inside its span), so the first all-pass level found
    scanning upward is the minimum.
    """
    if not face_results[-1][1]:
        return None
    for delta in range(0, dim + 1):
        if all(ok for f, ok in face_results if f.dim == delta):
            return delta
    raise AssertionError("the polytope is its own passing top face")


def _span_results(p: RationalPolytope) -> tuple[tuple[Face, bool], ...]:
    return tuple((f, affine_span_contains_lattice_point(f)) for f in enumerate_faces(p))


def min_delta_hypothesis(p: RationalPolytope) -> int | None:
    """Smallest delta such that every delta-face's span has a lattice point.

    Returns None when even the span of the polytope itself has no lattice
    point; then no delta can work, since every face's span sits inside the
    polytope's span.
    """
    return _delta_star(_span_results(p), p.dim)


@dataclass(frozen=True)
class EhrhartGradeReport:
    """Outcome of the grade-versus-delta check on one polytope."""

    polytope: RationalPolytope
    quasipolynomial: QuasiPolynomial
    pi_min: int
    grade: int
    delta_star: int | None
    holds: bool
    face_results: tuple[tuple[Face, bool], ...]

    @property
    def gap(self) -> int | None:
        if self.delta_star is None:
            return None
        return self.delta_star - 1 - self.grade


def verify_ehrhart_grade_bound(p: RationalPolytope) -> EhrhartGradeReport:
    """Check grade E_P < delta_star on one polytope.

    When the polytope's own span has no lattice point the hypothesis is
    vacuous for every delta and nothing is checked (holds stays True).  A
    False outcome otherwise signals a defect in this package.
    """
    q = _polytope.ehrhart_quasipolynomial(p)
    g = quasipoly.grade(q)
    results = _span_results(p)
    delta_star = _delta_star(results, p.dim)
    holds = True if delta_star is None else g < delta_star
    return EhrhartGradeReport(
        polytope=p,
        quasipolynomial=q,
        pi_min=q.period,
        grade=g,
        delta_star=delta_star,
        holds=holds,
        face_results=results,
    )


def format_face(face: Face, ok: bool) -> str:
    """The report line of one face and the verdict of its span test."""
    verts = ",".join(str(i) for i in face.vertex_indices)
    return f"face dim={face.dim} vertices={verts} span_lattice={'true' if ok else 'false'}"


def format_report(report: EhrhartGradeReport) -> str:
    """Machine-readable report: key=value lines, quasipolynomial block, face lines."""
    lines = [
        f"grade={report.grade}",
        f"delta_star={'none' if report.delta_star is None else report.delta_star}",
        f"period={report.pi_min}",
        f"holds={'true' if report.holds else 'false'}",
        f"gap={'none' if report.gap is None else report.gap}",
    ]
    if report.delta_star is None:
        lines.append("hypothesis=vacuous")
    lines.append(quasipoly.format_quasipolynomial(report.quasipolynomial))
    lines += [format_face(face, ok) for face, ok in report.face_results]
    return "\n".join(lines)
