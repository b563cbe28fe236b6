"""Polytope construction against a Fraction reference.

The reference is the earlier construction: a hull scan that takes a
nullspace for every subset of points in Fraction arithmetic, and a vertex
enumeration that decides emptiness by Fourier-Motzkin elimination.  It is
slow (Fourier-Motzkin can grow doubly exponentially, and equality rows make
it grow fastest), so the inputs here stay small, and the examples come from a
fixed seed so that the run time of the suite does not depend on the draw.
"""

from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from quasigrade import polytope as pt
from quasigrade.errors import PolytopeError
from quasigrade.exactmath import rat_nullspace, rat_rank, rat_rref, rat_solve


def _dot(a, x):
    return sum((F(ai) * xi for ai, xi in zip(a, x)), F(0))


def _affine_rank(points):
    if len(points) <= 1:
        return 0
    v0 = points[0]
    return rat_rank([[p[j] - v0[j] for j in range(len(v0))] for p in points[1:]])


def reference_hrep(vertices):
    """Facets from every dim-subset: nullspace normal, side test, rank of the incident points."""
    pts = sorted({tuple(F(c) for c in p) for p in vertices})
    m = len(pts[0])
    eqs = pt.affine_hull(pts)
    k = m - len(eqs)
    if k == 0:
        return (), eqs
    rref, pivots = rat_rref([[p[j] - pts[0][j] for j in range(m)] for p in pts[1:]])
    basis = rref[: len(pivots)]
    found = set()
    for subset in combinations(pts, k):
        t0 = subset[0]
        rows = [[_dot(b, [t[j] - t0[j] for j in range(m)]) for b in basis] for t in subset[1:]]
        null = rat_nullspace(rows if rows else [[F(0)] * k])
        if len(null) != 1:
            continue
        normal = [sum((null[0][l] * basis[l][j] for l in range(k)), F(0)) for j in range(m)]
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
        found.add(pt._clear_row(normal, rhs))
    return tuple(sorted(found)), eqs


def fourier_motzkin_feasible(rows, m):
    """Whether {a·x <= b} has a solution, by eliminating one variable at a time."""
    current = rows
    for j in range(m):
        zero, pos, neg = [], [], []
        for a, b in current:
            (zero if a[j] == 0 else pos if a[j] > 0 else neg).append((a, b))
        combined = zero
        for ap, bp in pos:
            for an, bn in neg:
                row = [-an[j] * x + ap[j] * y for x, y in zip(ap, an)]
                combined.append((row, -an[j] * bp + ap[j] * bn))
        seen = set()
        current = []
        for a, b in combined:
            key = pt._clear_row(a, b)
            if key not in seen:
                seen.add(key)
                current.append(([F(v) for v in key[0]], F(key[1])))
    return all(b >= 0 for _, b in current)


def reference_vrep(ineqs, eqs, m):
    """Vertices by Fourier-Motzkin emptiness, a ray test and every square subsystem."""
    rows = [([F(c) for c in a], F(b)) for a, b in ineqs]
    for c, d in eqs:
        rows.append(([F(v) for v in c], F(d)))
        rows.append(([F(-v) for v in c], F(-d)))
    if not fourier_motzkin_feasible(rows, m):
        raise PolytopeError("empty")
    normals = [list(a) for a, _ in ineqs] + [list(c) for c, _ in eqs]
    if rat_rank(normals if normals else [[0] * m]) < m:
        raise PolytopeError("unbounded")
    for subset in combinations(range(len(normals)), m - 1):
        null = rat_nullspace([normals[i] for i in subset] if subset else [[0] * m])
        if len(null) != 1:
            continue
        for direction in (null[0], [-x for x in null[0]]):
            if all(_dot(a, direction) <= 0 for a, _ in ineqs) and all(
                _dot(c, direction) == 0 for c, _ in eqs
            ):
                raise PolytopeError("unbounded")
    eq_rows = [list(c) for c, _ in eqs]
    need = m - rat_rank(eq_rows if eq_rows else [[0] * m])
    seen = set()
    for subset in combinations(range(len(ineqs)), need):
        sys_rows = eq_rows + [list(ineqs[i][0]) for i in subset]
        rhs = [d for _, d in eqs] + [ineqs[i][1] for i in subset]
        if rat_rank(sys_rows) < m:
            continue
        x = rat_solve(sys_rows, rhs)
        if x is None:
            continue
        if all(_dot(a, x) <= b for a, b in ineqs) and all(_dot(c, x) == d for c, d in eqs):
            seen.add(tuple(x))
    assert seen, "feasible bounded system must have a vertex"
    return sorted(seen)


def reference_assemble(points, strict):
    """(vertices, inequalities, equalities): the hull, then its vertices from its own rows."""
    pts = sorted({tuple(F(c) for c in p) for p in points})
    ineqs, eqs = reference_hrep(pts)
    verts = reference_vrep(ineqs, eqs, len(pts[0]))
    if strict and set(verts) != set(pts):
        extras = sorted(set(pts) - set(verts))
        shown = " ".join(str(tuple(map(str, p))) for p in extras[:3])
        raise PolytopeError(f"vertex list is not irredundant: {shown}")
    return tuple(verts), ineqs, eqs


def _outcome(fn, *args):
    """The result of fn, or the message of the PolytopeError it raised."""
    try:
        return fn(*args)
    except PolytopeError as exc:
        return f"error: {exc}"


def _fields(poly):
    return poly.vertices, poly.inequalities, poly.equalities


_rational = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def clouds(draw):
    """1-7 points (1-5 in 4-D) in 1-4 D, in an affine subspace of random dimension 0..m."""
    m = draw(st.integers(1, 4))
    rank = draw(st.integers(0, m))
    base = draw(st.lists(_rational, min_size=m, max_size=m))
    dirs = draw(st.lists(st.lists(_rational, min_size=m, max_size=m), min_size=rank, max_size=rank))
    most = 5 if m == 4 else 7
    count = draw(st.integers(min(rank + 1, most), most))
    points = []
    for _ in range(count):
        coef = draw(st.lists(_rational, min_size=rank, max_size=rank))
        points.append(tuple(base[j] + sum((c * d[j] for c, d in zip(coef, dirs)), F(0)) for j in range(m)))
    return points


@st.composite
def h_systems(draw):
    """Up to 6 random rows in 1-3 D, with an optional box |x_i| <= B and an optional equality."""
    m = draw(st.integers(1, 3))
    row = st.tuples(st.tuples(*[st.integers(-3, 3)] * m), st.integers(-3, 3))
    ineqs = draw(st.lists(row, min_size=0, max_size=6))
    if draw(st.booleans()):
        bound = draw(st.integers(0, 2))
        for j in range(m):
            unit = tuple(int(i == j) for i in range(m))
            ineqs += [(unit, bound), (tuple(-u for u in unit), bound)]
    eqs = draw(st.lists(row, min_size=0, max_size=1))
    return ineqs, eqs, m


@settings(max_examples=150, deadline=None, derandomize=True)
@given(clouds())
def test_clouds_match_reference(points):
    assert pt.hrep_from_vrep(points) == reference_hrep(points)
    expected = _outcome(reference_assemble, points, False)
    assert _outcome(lambda: _fields(pt.from_point_cloud(points))) == expected
    strict = _outcome(reference_assemble, points, True)
    assert _outcome(lambda: _fields(pt.from_vertices(points))) == strict


@settings(max_examples=200, deadline=None, derandomize=True)
@given(h_systems())
def test_h_systems_match_reference(system):
    ineqs, eqs, m = system
    expected = _outcome(reference_vrep, ineqs, eqs, m)
    assert _outcome(pt.vrep_from_hrep, ineqs, eqs, m) == expected
    if not eqs:
        built = _outcome(lambda: _fields(pt.from_inequalities(ineqs, m)))
        assert built == (reference_assemble(expected, False) if isinstance(expected, list) else expected)


@pytest.mark.parametrize(
    "ineqs, eqs, m, message",
    [
        # The normals have rank 1 < 2 and the set is empty: emptiness wins.
        ([((1, 0), -1), ((-1, 0), 0)], [], 2, "empty"),
        ([((1, 0), 1), ((-1, 0), 0)], [], 2, "unbounded"),
        ([((1, 1), 1)], [((1, 0), 0), ((2, 0), 1)], 2, "empty"),
        ([], [], 3, "unbounded"),
    ],
)
def test_empty_and_unbounded_cases(ineqs, eqs, m, message):
    for vrep in (pt.vrep_from_hrep, reference_vrep):
        with pytest.raises(PolytopeError, match=message):
            vrep(ineqs, eqs, m)


def test_point_on_an_edge_of_four_facets_is_not_a_vertex():
    # The edge from e1 to e2 of the 4-D cross-polytope lies in four facets,
    # so its midpoint is tight at four rows; their rank is 3, not 4.
    corners = [tuple(s * int(i == j) for j in range(4)) for i in range(4) for s in (1, -1)]
    midpoint = (F(1, 2), F(1, 2), 0, 0)
    poly = pt.from_point_cloud(corners + [midpoint])
    assert set(poly.vertices) == set(corners)
    assert len(poly.inequalities) == 16 and poly.equalities == ()
    tight = [a for a, b in poly.inequalities if _dot(a, midpoint) == b]
    assert len(tight) == 4 and rat_rank(tight) == 3
    with pytest.raises(PolytopeError, match="irredundant"):
        pt.from_vertices(corners + [midpoint])


def _cube_rows(m):
    rows = []
    for j in range(m):
        unit = tuple(int(i == j) for i in range(m))
        rows += [(unit, 1), (tuple(-u for u in unit), 1)]
    return rows


_CUBE4 = [tuple(2 * ((i >> j) & 1) - 1 for j in range(4)) for i in range(16)]


@pytest.mark.parametrize(
    "ineqs, m, vertices",
    [
        # Each facet of the 4-cube holds 8 vertices, and the first four of
        # them in sorted order are coplanar.  One row is repeated scaled by
        # 2, and one row is loose.
        (_cube_rows(4) + [((0, 0, 2, 0), 2), ((1, 1, 1, 1), 5)], 4, _CUBE4),
        # x + y <= 2 is tight at the single vertex (1, 1) of the unit square.
        ([((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0), ((1, 1), 2)], 2,
         [(0, 0), (1, 0), (0, 1), (1, 1)]),
        # The first two rows imply x + y = 1, and they are tight at every vertex.
        ([((1, 1), 1), ((-1, -1), -1), ((-1, 0), 0), ((0, -1), 0)], 2, [(0, 1), (1, 0)]),
    ],
)
def test_from_inequalities_matches_hull_of_its_vertices(ineqs, m, vertices):
    expected = _fields(pt.from_point_cloud(vertices))
    assert _fields(pt.from_inequalities(ineqs, m)) == expected
    assert set(expected[0]) == {tuple(F(c) for c in v) for v in vertices}
