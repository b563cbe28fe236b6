import math
from fractions import Fraction as F

import pytest

from quasigrade import polytope as pt, quasipoly as qp
from quasigrade.errors import InputFormatError, PolytopeError
from quasigrade.exactmath import lcm_denominators

from oracles import polynomial, volume


def test_affine_hull_examples():
    assert pt.affine_hull([(0, 0), (1, 0)]) == (((0, 1), 0),)
    assert pt.affine_hull([(F(1, 2), 0), (0, F(1, 2))]) == (((2, 2), 1),)
    assert pt.affine_hull([(F(1, 2),)]) == (((2,), 1),)


def test_hrep_examples(square, halfseg, tri_int):
    assert set(square.inequalities) == {
        ((-1, 0), 0),
        ((0, -1), 0),
        ((1, 0), 1),
        ((0, 1), 1),
    }
    assert square.equalities == ()
    assert set(halfseg.inequalities) == {((-1,), 0), ((2,), 1)}
    assert set(tri_int.inequalities) == {((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)}


def test_vrep_examples():
    assert pt.vrep_from_hrep([((-1,), 0), ((1,), 1)], (), 1) == [(0,), (1,)]
    assert pt.vrep_from_hrep([((-1,), 0), ((2,), 1)], (), 1) == [(0,), (F(1, 2),)]
    with pytest.raises(PolytopeError, match="unbounded"):
        pt.vrep_from_hrep([((-1,), 0)], (), 1)
    with pytest.raises(PolytopeError, match="empty"):
        pt.vrep_from_hrep([((1,), -1), ((-1,), 0)], (), 1)


def test_vrep_unbounded_lineality():
    with pytest.raises(PolytopeError, match="unbounded"):
        pt.vrep_from_hrep([((1, 0), 1), ((-1, 0), 0)], (), 2)


def test_count_examples(square, halfseg, tri_int):
    assert pt.count_lattice_points(square, 2) == 9
    assert pt.count_lattice_points(halfseg, 3) == 2
    assert pt.count_lattice_points(tri_int, 1) == 3
    assert pt.count_lattice_points(square, 0) == 1


def test_count_matches_direct_enumeration(tri_half):
    # Independent oracle: scan the box with raw Fraction comparisons.
    for n in range(1, 13):
        expected = sum(
            1
            for x in range(0, n + 1)
            for y in range(0, n + 1)
            if x >= 0 and y >= 0 and F(x + y) <= F(n, 2)
        )
        assert pt.count_lattice_points(tri_half, n) == expected


def test_ehrhart_square(square):
    q = pt.ehrhart_quasipolynomial(square)
    assert q == polynomial([1, 2, 1])


def test_ehrhart_halfseg(halfseg):
    q = pt.ehrhart_quasipolynomial(halfseg)
    assert q.period == 2 and q.degree == 1
    assert q.coeffs == ((F(1), F(1, 2)), (F(1, 2), F(1, 2)))


def test_ehrhart_tri_half(tri_half):
    q = pt.ehrhart_quasipolynomial(tri_half)
    assert q.period == 2 and q.degree == 2
    assert q.coeffs[0] == (F(1), F(3, 4), F(1, 8))  # (n^2 + 6n + 8) / 8
    assert q.coeffs[1] == (F(3, 8), F(1, 2), F(1, 8))  # (n^2 + 4n + 3) / 8


def test_volume_examples(square, tri_int, tri_half, cube):
    assert volume(square) == 1
    assert volume(tri_int) == F(1, 2)
    assert volume(tri_half) == F(1, 8)
    assert volume(cube) == 1


def test_volume_requires_full_dimension(halfseg):
    embedded = pt.from_vertices([(0, 0), (1, 0)])
    with pytest.raises(PolytopeError, match="full-dimensional"):
        volume(embedded)
    assert volume(halfseg) == F(1, 2)


def _corpus(square, cube, halfseg, tri_half, tri_int):
    flat_seg = pt.from_vertices([(F(1, 2), 0), (0, F(1, 2))])
    point = pt.from_vertices([(F(1, 2), F(1, 3))])
    return [square, cube, halfseg, tri_half, tri_int, flat_seg, point]


def test_vrep_hrep_round_trip(square, cube, halfseg, tri_half, tri_int):
    for poly in _corpus(square, cube, halfseg, tri_half, tri_int):
        back = pt.vrep_from_hrep(poly.inequalities, poly.equalities, poly.ambient_dim)
        assert set(back) == set(poly.vertices)


def test_count_monotone_along_periods(square, cube, halfseg, tri_half, tri_int):
    for poly in _corpus(square, cube, halfseg, tri_half, tri_int):
        d = pt.vertex_denominator_lcm(poly)
        for n in range(1, 9):
            base = pt.count_lattice_points(poly, n)
            for k in (1, 2):
                assert base <= pt.count_lattice_points(poly, n + k * d)


def test_fit_valid_on_extended_window(square, cube, halfseg, tri_half, tri_int):
    for poly in _corpus(square, cube, halfseg, tri_half, tri_int):
        q = pt.ehrhart_quasipolynomial(poly)
        d = pt.vertex_denominator_lcm(poly)
        for n in range(1, d * (poly.dim + 2) + 1):
            assert qp.evaluate(q, n) == pt.count_lattice_points(poly, n)


def test_period_divides_denominator_lcm(square, cube, halfseg, tri_half, tri_int):
    for poly in _corpus(square, cube, halfseg, tri_half, tri_int):
        q = pt.ehrhart_quasipolynomial(poly)
        pi, _ = qp.minimal_period(q)
        assert pt.vertex_denominator_lcm(poly) % pi == 0


def test_leading_coefficient_is_volume(square, cube, tri_half, tri_int):
    for poly in (square, cube, tri_half, tri_int):
        q = pt.ehrhart_quasipolynomial(poly)
        vol = volume(poly)
        assert all(row[q.degree] == vol for row in q.coeffs)


def test_from_vertices_rejects_redundant_points():
    with pytest.raises(PolytopeError, match="irredundant"):
        pt.from_vertices([(0,), (1,), (F(1, 2),)])
    with pytest.raises(PolytopeError, match="irredundant"):
        pt.from_vertices([(0, 0), (1, 0), (0, 1), (F(1, 4), F(1, 4))])


def test_from_point_cloud_extracts_hull():
    poly = pt.from_point_cloud([(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2))])
    assert len(poly.vertices) == 4
    degenerate = pt.from_point_cloud([(F(1, 3), F(1, 3))] * 3)
    assert degenerate.dim == 0


def test_lower_dimensional_counts():
    # Segment from (1/2, 0) to (0, 1/2): dilates hold lattice points only at
    # even n, and then n/2 + 1 of them.
    seg = pt.from_vertices([(F(1, 2), 0), (0, F(1, 2))])
    assert seg.dim == 1 and seg.equalities == (((2, 2), 1),)
    for n in range(13):
        expected = n // 2 + 1 if n % 2 == 0 else 0
        assert pt.count_lattice_points(seg, n) == expected


SQUARE_TEXT = """ambient 2
vertices 4
0 0
1 0
0 1
1 1
inequalities 4
-1 0 0
0 -1 0
1 0 1
0 1 1
"""


def test_parse_both_blocks():
    poly = pt.parse_polytope(SQUARE_TEXT)
    assert len(poly.vertices) == 4 and poly.dim == 2


def test_parse_single_blocks(square):
    verts_only = "ambient 1\nvertices 2\n0\n1/2\n"
    poly = pt.parse_polytope(verts_only)
    assert poly.inequalities == (((-1,), 0), ((2,), 1))
    ineqs_only = "ambient 1\ninequalities 2\n-1 0\n2 1\n"
    poly2 = pt.parse_polytope(ineqs_only)
    assert poly2.vertices == ((F(0),), (F(1, 2),))


def test_format_round_trip(square, cube, halfseg, tri_half, tri_int):
    for poly in _corpus(square, cube, halfseg, tri_half, tri_int):
        again = pt.parse_polytope(pt.format_polytope(poly))
        assert again == poly


def test_parse_disagreeing_blocks():
    bad = SQUARE_TEXT.replace("1 0 1", "1 0 2")
    with pytest.raises(PolytopeError, match="disagree"):
        pt.parse_polytope(bad)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "ambient x",
        "ambient 2\nvertices 1\n0\n",
        "ambient 1\nvertices 2\n0\n",
        "ambient 1\nvertices 0\n",
        "ambient 1\ninequalities 1\n1 1 1\n",
        "ambient 1\nwhatever 1\n0\n",
        "ambient 1\n",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(InputFormatError):
        pt.parse_polytope(text)


def test_parse_unbounded_is_polytope_error():
    with pytest.raises(PolytopeError, match="unbounded"):
        pt.parse_polytope("ambient 1\ninequalities 1\n-1 0\n")
