"""Polytope construction against two references.

The Fraction reference is the earliest construction: a hull scan that takes a
nullspace for every subset of points in Fraction arithmetic, and a vertex
enumeration that decides emptiness by Fourier-Motzkin elimination of the
integer rows.  It is slow (Fourier-Motzkin can grow doubly exponentially, and
equality rows make it grow fastest), so its inputs stay small.

The subset reference is the integer construction that double description
replaced: a scan of every k-subset of the points with minor-vector normals,
and a vertex enumeration that solves every square subsystem of the rows.  It
costs C(points, k) and C(rows, m) small eliminations, which is polynomial for
a fixed dimension, so it checks larger and more degenerate inputs.

The examples come from a fixed seed so that the run time of the suite does
not depend on the draw.
"""

from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from quasigrade import polytope as pt
from quasigrade.errors import PolytopeError
from quasigrade.exactmath import lcm_denominators, rat_rref, rat_solve

from oracles import _clear_row, affine_hull, int_det, int_solve, rat_nullspace, rat_rank


def _dot(a, x):
    return sum((F(ai) * xi for ai, xi in zip(a, x)), F(0))


def _affine_rank(points):
    if len(points) <= 1:
        return 0
    v0 = points[0]
    return rat_rank([[p[j] - v0[j] for j in range(len(v0))] for p in points[1:]])


def reference_hrep(vertices):
    """Facets from the dim-subsets: nullspace normal, side test, rank of the incident points.

    A k-subset (k the dimension of the hull) whose differences have rank
    k - 1 spans one hyperplane of the hull, and every such subset of the
    points on that hyperplane spans the same one; a subset of lower rank is
    skipped anyway.  So once a hyperplane is tested, the k-subsets of its
    points are skipped, and the result is that of the full scan on every
    input.
    """
    pts = sorted({tuple(F(c) for c in p) for p in vertices})
    m = len(pts[0])
    eqs = affine_hull(pts)
    k = m - len(eqs)
    if k == 0:
        return (), eqs
    rref, pivots = rat_rref([[p[j] - pts[0][j] for j in range(m)] for p in pts[1:]])
    basis = rref[: len(pivots)]
    found = set()
    tested = set()
    for subset in combinations(range(len(pts)), k):
        if subset in tested:
            continue
        t0 = pts[subset[0]]
        rows = [[_dot(b, [pts[i][j] - t0[j] for j in range(m)]) for b in basis] for i in subset[1:]]
        null = rat_nullspace(rows if rows else [[F(0)] * k])
        if len(null) != 1:
            continue
        normal = [sum((null[0][l] * basis[l][j] for l in range(k)), F(0)) for j in range(m)]
        rhs = _dot(normal, t0)
        values = [_dot(normal, p) for p in pts]
        tested.update(combinations([i for i, v in enumerate(values) if v == rhs], k))
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


def fourier_motzkin_feasible(rows, m):
    """Whether {a·x <= b} has a solution, by eliminating one variable at a time.

    The rows are integer; each combination of two rows is made primitive, so
    the arithmetic stays on integers.
    """
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
            key = _clear_row(a, b)
            if key not in seen:
                seen.add(key)
                current.append(key)
    return all(b >= 0 for _, b in current)


def reference_vrep(ineqs, eqs, m):
    """Vertices by Fourier-Motzkin emptiness, a ray test and every square subsystem."""
    rows = list(ineqs)
    for c, d in eqs:
        rows.append((c, d))
        rows.append(([-v for v in c], -d))
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


def _minor_normal(rows):
    """Signed maximal minors of a (k-1) x k integer matrix: zero exactly when the rows are dependent."""
    return [
        (-1) ** j * int_det([row[:j] + row[j + 1 :] for row in rows])
        for j in range(len(rows) + 1)
    ]


def subset_hrep(vertices):
    """Facets from the k-subsets of the points, on integer pivot coordinates.

    A subset's normal is its minor vector; it spans a facet when every point
    lies on one closed side.  Subsets inside a hyperplane already tested are
    skipped: their minor vector is zero or the same normal up to sign.  The
    ambient row comes from a dual basis of the direction space.
    """
    pts = sorted({tuple(F(c) for c in p) for p in vertices})
    m = len(pts[0])
    eqs = affine_hull(pts)
    k = m - len(eqs)
    if k == 0:
        return (), eqs
    rref, pivots = rat_rref([[p[j] - pts[0][j] for j in range(m)] for p in pts[1:]])
    basis = rref[:k]
    # dual[l] lies in the direction space, and dual[l]·d is the l-th pivot
    # coordinate of any direction d.
    dual = [row[k:] for row in rat_rref([[_dot(b, c) for c in basis] + b for b in basis])[0]]
    scale = lcm_denominators(p[j] for p in pts for j in pivots)
    coords = [tuple(int(p[j] * scale) for j in pivots) for p in pts]
    tested = set()
    rows = []
    for subset in combinations(range(len(pts)), k):
        if subset in tested:
            continue
        q0 = coords[subset[0]]
        normal = _minor_normal([[a - b for a, b in zip(coords[i], q0)] for i in subset[1:]])
        if not any(normal):
            continue
        rhs = pt._int_dot(normal, q0)
        values = [pt._int_dot(normal, q) for q in coords]
        tested.update(combinations([i for i, v in enumerate(values) if v == rhs], k))
        above = max(values) > rhs
        if above and min(values) < rhs:
            continue
        if above:
            normal = [-c for c in normal]
        ambient = [_dot(normal, column) for column in zip(*dual)]
        rows.append(_clear_row(ambient, _dot(ambient, pts[subset[0]])))
    return tuple(sorted(rows)), eqs


def _direction(normal):
    """The primitive normal with a positive leading entry, shared by all nonzero multiples."""
    v = pt._primitive(list(normal))
    return tuple(-x for x in v) if next(x for x in v if x) < 0 else tuple(v)


def square_system_vrep(inequalities, equalities, m):
    """Vertices from every square subsystem, after pinning the lineality space.

    The feasible solutions are the vertices; with none the set is empty.  A
    nonempty set is unbounded when it has lineality or a recession ray among
    the minor vectors of m-1 normals.  Two parallel normals make a square
    system singular and a minor vector zero, so a subset takes at most one
    row of each normal direction, and repeated rows count once.
    """
    ineqs = [(tuple(a), b) for a, b in inequalities]
    eqs = [(tuple(c), d) for c, d in equalities]
    normals = [a for a, _ in ineqs] + [c for c, _ in eqs]
    lineality = rat_nullspace(normals if normals else [[0] * m])
    eq_rref, eq_pivots = rat_rref([list(c) + [d] for c, d in eqs])
    if m in eq_pivots:
        raise PolytopeError("empty")
    pinned = [_clear_row(row[:m], row[m]) for row in eq_rref[: len(eq_pivots)]]
    pinned += [_clear_row(v, F(0)) for v in lineality]
    by_direction: dict[tuple[int, ...], set] = {}
    for a, b in ineqs:
        if any(a):
            by_direction.setdefault(_direction(a), set()).add(_clear_row(a, b))
    subsets = (s for groups in combinations(by_direction.values(), m - len(pinned)) for s in product(*groups))
    seen = set()
    for subset in subsets:
        system = pinned + list(subset)
        solved = int_solve([a for a, _ in system], [b for _, b in system])
        if solved is None:
            continue
        num, den = solved
        if all(pt._int_dot(a, num) <= b * den for a, b in ineqs):
            seen.add(tuple(F(v, den) for v in num))
    if not seen:
        raise PolytopeError("empty")
    if lineality:
        raise PolytopeError("unbounded")
    for subset in combinations(sorted({_direction(a) for a in normals if any(a)}), m - 1):
        ray = _minor_normal(subset)
        if not any(ray):
            continue
        for direction in (ray, [-x for x in ray]):
            if all(pt._int_dot(a, direction) <= 0 for a, _ in ineqs) and all(
                pt._int_dot(c, direction) == 0 for c, _ in eqs
            ):
                raise PolytopeError("unbounded")
    return sorted(seen)


def subset_assemble(points):
    """(vertices, inequalities, equalities) of the hull, by the subset reference."""
    pts = sorted({tuple(F(c) for c in p) for p in points})
    ineqs, eqs = subset_hrep(pts)
    return tuple(square_system_vrep(ineqs, eqs, len(pts[0]))), ineqs, eqs


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


@settings(max_examples=150)
@given(clouds())
def test_clouds_match_reference(points):
    assert pt.hrep_from_vrep(points) == reference_hrep(points)
    expected = _outcome(reference_assemble, points, False)
    assert _outcome(lambda: _fields(pt.from_point_cloud(points))) == expected
    strict = _outcome(reference_assemble, points, True)
    assert _outcome(lambda: _fields(pt.from_vertices(points))) == strict


@settings(max_examples=200)
@given(clouds(), st.data())
def test_affine_hull_matches_fraction_reference(points, data):
    # The clouds span every dimension from a point to the whole space;
    # repeats of drawn points and a shuffle are added on top.
    repeats = data.draw(st.lists(st.sampled_from(points), max_size=3))
    points = data.draw(st.permutations(points + repeats))
    assert pt.affine_hull(points) == affine_hull(points)


@settings(max_examples=200)
@given(h_systems())
def test_h_systems_match_reference(system):
    ineqs, eqs, m = system
    expected = _outcome(reference_vrep, ineqs, eqs, m)
    assert _outcome(pt.vrep_from_hrep, ineqs, eqs, m) == expected
    if not eqs:
        built = _outcome(lambda: _fields(pt.from_inequalities(ineqs, m)))
        assert built == (reference_assemble(expected, False) if isinstance(expected, list) else expected)


@st.composite
def grid_clouds(draw):
    """12-25 points of the grid {0..3}^3, most of them on the plane z = 0 or on one line."""
    coord = st.integers(0, 3)
    points = []
    for _ in range(draw(st.integers(12, 25))):
        x, y, z = draw(st.tuples(coord, coord, coord))
        shape = draw(st.sampled_from(["plane", "plane", "line", "free"]))
        points.append((x, y, 0) if shape == "plane" else (x, x, x) if shape == "line" else (x, y, z))
    return points


@st.composite
def flat_clouds_4d(draw):
    """6-12 points in 4-D spanning an affine subspace of dimension 1-3."""
    rank = draw(st.integers(1, 3))
    base = draw(st.lists(_rational, min_size=4, max_size=4))
    dirs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), min_size=rank, max_size=rank))
    points = []
    for _ in range(draw(st.integers(6, 12))):
        coef = draw(st.lists(_rational, min_size=rank, max_size=rank))
        points.append(tuple(base[j] + sum((c * d[j] for c, d in zip(coef, dirs)), F(0)) for j in range(4)))
    return points


@st.composite
def larger_h_systems(draw):
    """8-20 rows in 2-4 D: mostly a box |x_i| <= B, then random, repeated, scaled and loose rows."""
    m = draw(st.integers(2, 4))
    normal = st.tuples(*[st.integers(-3, 3)] * m)
    row = st.tuples(normal, st.integers(-4, 6))
    bound = draw(st.integers(1, 3))
    ineqs = []
    if draw(st.integers(0, 4)):
        for j in range(m):
            unit = tuple(int(i == j) for i in range(m))
            ineqs += [(unit, bound), (tuple(-u for u in unit), bound)]
    for _ in range(draw(st.integers(8, 20)) - len(ineqs)):
        kind = draw(st.sampled_from(["random", "repeated", "scaled", "loose"]))
        if kind == "random" or not ineqs:
            ineqs.append(draw(row))
        elif kind == "repeated":
            ineqs.append(draw(st.sampled_from(ineqs)))
        elif kind == "scaled":
            a, b = draw(st.sampled_from(ineqs))
            k = draw(st.integers(2, 3))
            ineqs.append((tuple(k * v for v in a), k * b))
        else:
            a = draw(normal)
            ineqs.append((a, bound * sum(map(abs, a)) + draw(st.integers(0, 2))))
    eqs = draw(st.lists(row, min_size=0, max_size=1))
    return ineqs, eqs, m


def _check_cloud_against_subset_reference(points):
    assert pt.hrep_from_vrep(points) == subset_hrep(points)
    assert _outcome(lambda: _fields(pt.from_point_cloud(points))) == _outcome(subset_assemble, points)


@settings(max_examples=60)
@given(grid_clouds())
def test_degenerate_clouds_match_subset_reference(points):
    _check_cloud_against_subset_reference(points)


@settings(max_examples=60)
@given(flat_clouds_4d())
def test_flat_4d_clouds_match_subset_reference(points):
    _check_cloud_against_subset_reference(points)


@settings(max_examples=80)
@given(larger_h_systems())
def test_larger_h_systems_match_subset_reference(system):
    ineqs, eqs, m = system
    expected = _outcome(square_system_vrep, ineqs, eqs, m)
    assert _outcome(pt.vrep_from_hrep, ineqs, eqs, m) == expected
    if not eqs:
        built = _outcome(lambda: _fields(pt.from_inequalities(ineqs, m)))
        assert built == (subset_assemble(expected) if isinstance(expected, list) else expected)


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
    for vrep in (pt.vrep_from_hrep, reference_vrep, square_system_vrep):
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
