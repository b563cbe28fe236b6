import glob
import os
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasigrade import faces as fc, polytope as pt, quasipoly as qp
from quasigrade.errors import PolytopeError
from quasigrade.exactmath import solve_integer
from quasigrade.rng import XorShift64Star

from oracles import affine_hull, rank_faces, rank_vertices, snf_solve
from test_construction import h_systems, larger_h_systems

POLYTOPE_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "polytopes")


def test_face_counts(square, halfseg, tri_half, cube):
    assert len(fc.enumerate_faces(square)) == 9
    assert len(fc.enumerate_faces(halfseg)) == 3
    assert len(fc.enumerate_faces(tri_half)) == 7
    faces = fc.enumerate_faces(cube)
    assert len(faces) == 27
    by_dim = {d: sum(1 for f in faces if f.dim == d) for d in range(4)}
    assert by_dim == {0: 8, 1: 12, 2: 6, 3: 1}


def test_simplex_face_counts():
    # A d-simplex has 2^(d+1) - 1 nonempty faces.
    for d in (1, 2, 3):
        verts = [tuple(0 for _ in range(d))]
        for i in range(d):
            verts.append(tuple(1 if j == i else 0 for j in range(d)))
        simplex = pt.from_vertices(verts)
        assert len(fc.enumerate_faces(simplex)) == 2 ** (d + 1) - 1


def test_point_polytope_single_face():
    point = pt.from_vertices([(F(1, 2), F(1, 3))])
    faces = fc.enumerate_faces(point)
    assert len(faces) == 1 and faces[0].dim == 0


def test_span_examples():
    half = fc.Face((0,), 0, pt.affine_hull([(F(1, 2),)]))
    assert not fc.affine_span_contains_lattice_point(half)
    whole = fc.Face((0,), 0, pt.affine_hull([(F(1),)]))
    assert fc.affine_span_contains_lattice_point(whole)
    edge = fc.Face((0, 1), 1, pt.affine_hull([(F(1, 2), 0), (0, F(1, 2))]))
    assert not fc.affine_span_contains_lattice_point(edge)


def test_min_delta_examples(square, halfseg, tri_half):
    assert fc.min_delta_hypothesis(square) == 0
    assert fc.min_delta_hypothesis(halfseg) == 1
    assert fc.min_delta_hypothesis(tri_half) == 2


def test_min_delta_vacuous():
    point = pt.from_vertices([(F(1, 2),)])
    assert fc.min_delta_hypothesis(point) is None
    report = fc.verify_ehrhart_grade_bound(point)
    assert report.delta_star is None and report.holds
    assert "hypothesis=vacuous" in fc.format_report(report)


def test_hypothesis_monotone(square, halfseg, tri_half, cube):
    for poly in (square, halfseg, tri_half, cube):
        faces = fc.enumerate_faces(poly)
        passes = [
            all(
                fc.affine_span_contains_lattice_point(f)
                for f in faces
                if f.dim == delta
            )
            for delta in range(poly.dim + 1)
        ]
        for lo, hi in zip(passes, passes[1:]):
            assert hi or not lo


def _box_lattice_point_in_span(eqs, m, radius=20) -> bool:
    axes = [np.arange(-radius, radius + 1, dtype=np.int64)] * m
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in mesh], axis=1)
    mask = np.ones(pts.shape[0], dtype=bool)
    for c, d in eqs:
        mask &= pts @ np.array(c, dtype=np.int64) == d
    return bool(mask.any())


def random_span_instance(rng: XorShift64Star):
    """Integer equations of a random nonempty rational affine subspace."""
    m = rng.int_between(1, 3)
    k = rng.int_between(1, m)
    anchor = [rng.fraction(4, 4) for _ in range(m)]
    eqs = []
    for _ in range(k):
        c = [rng.int_between(-4, 4) for _ in range(m)]
        rhs = sum(F(ci) * xi for ci, xi in zip(c, anchor))
        scale = rhs.denominator
        eqs.append((tuple(ci * scale for ci in c), int(rhs * scale)))
    return m, eqs


def test_span_test_against_box_search():
    rng = XorShift64Star(41)
    says_yes = says_no = 0
    for _ in range(80):
        m, eqs = random_span_instance(rng)
        rows = [list(c) for c, _ in eqs]
        rhs = [d for _, d in eqs]
        x = solve_integer(rows, rhs)
        if x is not None:
            says_yes += 1
            assert [sum(a * v for a, v in zip(row, x)) for row in rows] == rhs
        else:
            says_no += 1
            assert not _box_lattice_point_in_span(eqs, m)
    assert says_yes and says_no


def test_verify_reports(square, halfseg, tri_half):
    r = fc.verify_ehrhart_grade_bound(square)
    assert (r.grade, r.delta_star, r.holds) == (-1, 0, True)
    r2 = fc.verify_ehrhart_grade_bound(halfseg)
    assert (r2.grade, r2.delta_star, r2.pi_min, r2.holds) == (0, 1, 2, True)
    # A vertex span fails (the vertex 1/2), no edge span does.
    assert [f.dim for f, ok in r2.face_results if not ok] == [0]
    r3 = fc.verify_ehrhart_grade_bound(tri_half)
    assert (r3.grade, r3.delta_star, r3.holds) == (1, 2, True)
    assert r3.gap == 0


def test_report_format(halfseg):
    text = fc.format_report(fc.verify_ehrhart_grade_bound(halfseg))
    lines = text.splitlines()
    assert lines[0] == "grade=0"
    assert lines[1] == "delta_star=1"
    assert lines[2] == "period=2"
    assert lines[3] == "holds=true"
    assert lines[4] == "gap=0"
    assert lines[5] == "period=2 degree=1"
    assert lines[-1] == "face dim=1 vertices=0,1 span_lattice=true"


def test_translate_invariance(square, halfseg, tri_half):
    shifts = {1: (7,), 2: (3, -2)}
    for poly in (square, halfseg, tri_half):
        z = shifts[poly.ambient_dim]
        moved = pt.from_vertices(
            [tuple(c + dz for c, dz in zip(v, z)) for v in poly.vertices]
        )
        base = fc.verify_ehrhart_grade_bound(poly)
        other = fc.verify_ehrhart_grade_bound(moved)
        assert base.quasipolynomial == other.quasipolynomial
        assert (base.grade, base.delta_star, base.pi_min) == (
            other.grade,
            other.delta_star,
            other.pi_min,
        )
        for n in range(1, 9):
            assert pt.count_lattice_points(poly, n) == pt.count_lattice_points(moved, n)


def _dot(a, x):
    return sum((F(ai) * xi for ai, xi in zip(a, x)), F(0))


def reference_faces(p):
    """Faces by Fraction incidence, with one affine hull computed per face."""
    facet_sets = [
        frozenset(i for i, v in enumerate(p.vertices) if _dot(a, v) == b)
        for a, b in p.inequalities
    ]
    known = {frozenset(range(len(p.vertices)))} | set(facet_sets)
    frontier = list(known)
    while frontier:
        nxt = []
        for face_set in frontier:
            for facet in facet_sets:
                meet = face_set & facet
                if meet and meet not in known:
                    known.add(meet)
                    nxt.append(meet)
        frontier = nxt
    faces = []
    for vset in known:
        indices = tuple(sorted(vset))
        eqs = affine_hull([p.vertices[i] for i in indices])
        faces.append(fc.Face(indices, p.ambient_dim - len(eqs), eqs))
    return sorted(faces, key=lambda f: (f.dim, f.vertex_indices))


def _check_faces_against_reference(p):
    faces = fc.enumerate_faces(p)
    expected = reference_faces(p)
    assert [(f.vertex_indices, f.dim) for f in faces] == [
        (f.vertex_indices, f.dim) for f in expected
    ]
    assert [(f.vertex_indices, f.dim) for f in faces] == rank_faces(p)
    for face, ref in zip(faces, expected):
        # The rows hold every vertex of the face, and they have the rank of
        # its affine hull, so they cut out exactly its span.
        for i in face.vertex_indices:
            assert all(_dot(c, p.vertices[i]) == d for c, d in face.hull_equalities)
        assert fc.affine_span_contains_lattice_point(face) == fc.affine_span_contains_lattice_point(ref)


def _check_spans_against_smith_form(p):
    """The span verdict of every face system agrees with the Smith-form reference."""
    for face in fc.enumerate_faces(p):
        rows = [c for c, _ in face.hull_equalities]
        rhs = [d for _, d in face.hull_equalities]
        expected = snf_solve(rows, rhs, p.ambient_dim) is not None
        assert fc.affine_span_contains_lattice_point(face) == expected


_rational = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def clouds(draw):
    """3-9 points in 1-4 D, in an affine subspace of random dimension 0..m."""
    m = draw(st.integers(1, 4))
    rank = draw(st.integers(0, m))
    base = draw(st.lists(_rational, min_size=m, max_size=m))
    dirs = draw(st.lists(st.lists(_rational, min_size=m, max_size=m), min_size=rank, max_size=rank))
    points = []
    for _ in range(draw(st.integers(3, 9))):
        coef = draw(st.lists(_rational, min_size=rank, max_size=rank))
        points.append(tuple(base[j] + sum((c * d[j] for c, d in zip(coef, dirs)), F(0)) for j in range(m)))
    return points


def _with_midpoints(points):
    """The points and the midpoint of each with the one before it (cyclically).

    No midpoint of two distinct points is a vertex of their hull.
    """
    pts = [tuple(F(c) for c in q) for q in points]
    return pts + [tuple((a + b) / 2 for a, b in zip(p, q)) for p, q in zip(pts, pts[-1:] + pts[:-1])]


def _check_vertices_against_rank_test(points):
    """The hull's vertices and facet vertex sets agree with the rank test and with dot products."""
    pts = sorted({tuple(F(c) for c in q) for q in points})
    poly = pt.from_point_cloud(pts)
    assert list(poly.vertices) == rank_vertices(pts, poly.inequalities, poly.equalities)
    for (a, b), mask in zip(poly.inequalities, poly.facet_vertices):
        assert mask == sum(1 << i for i, v in enumerate(poly.vertices) if _dot(a, v) == b)
    return poly


@settings(max_examples=150)
@given(clouds())
def test_faces_match_reference_on_clouds(points):
    _check_faces_against_reference(pt.from_point_cloud(points))
    _check_faces_against_reference(_check_vertices_against_rank_test(_with_midpoints(points)))


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(POLYTOPE_DIR, "*.poly"))),
                         ids=os.path.basename)
def test_faces_match_reference_on_corpus(path):
    poly = pt.load_polytope(path)
    _check_faces_against_reference(poly)
    _check_spans_against_smith_form(poly)
    assert _check_vertices_against_rank_test(_with_midpoints(poly.vertices)) == poly


def test_faces_match_reference_on_a_37_facet_hull(cloud40):
    poly = _check_vertices_against_rank_test(cloud40)
    assert len(poly.vertices) == 21 and len(poly.inequalities) == 37
    _check_faces_against_reference(poly)
    _check_spans_against_smith_form(poly)


@pytest.mark.parametrize(
    "points",
    [
        [(0, 0, 0), (2, 0, 0), (0, 2, 0), (F(1, 2), F(1, 2), 0)],
        [(0, 0, 0, 0), (1, 2, 3, 4), (F(1, 3), F(2, 3), 1, F(4, 3))],
        [(x, y, x + y, 1) for x in (0, 1) for y in (0, 1)] + [(F(1, 2), F(1, 2), 1, 1)],
        [(1, F(1, 2), 3)] * 2,
    ],
    ids=["triangle-in-3d", "segment-in-4d", "square-in-4d", "point-in-3d"],
)
def test_rank_references_on_lower_dimensional_hulls(points):
    poly = _check_vertices_against_rank_test(_with_midpoints(points))
    assert poly.dim < poly.ambient_dim
    _check_faces_against_reference(poly)


@settings(max_examples=200)
@given(st.one_of(h_systems(), larger_h_systems()))
def test_rank_references_on_h_systems(system):
    """H-inputs, each equality entered as two opposite rows."""
    ineqs, eqs, m = system
    rows = ineqs + [row for c, d in eqs for row in ((c, d), (tuple(-v for v in c), -d))]
    try:
        poly = pt.from_inequalities(rows, m)
    except PolytopeError:
        return
    assert [(f.vertex_indices, f.dim) for f in fc.enumerate_faces(poly)] == rank_faces(poly)
    assert _check_vertices_against_rank_test(_with_midpoints(poly.vertices)) == poly
