import glob
import itertools
import math
import os
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from quasigrade import _kernels as kn, polytope as pt, quasipoly

POLYTOPE_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "polytopes")


def brute_force_count(lo, hi, ineqs, eqs):
    """Reference count: test every point of the box, on Python integers."""
    if any(l > h for l, h in zip(lo, hi)):
        return 0
    total = 0
    for x in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        if all(sum(a * v for a, v in zip(row, x)) <= b for row, b in ineqs) and all(
            sum(c * v for c, v in zip(row, x)) == d for row, d in eqs
        ):
            total += 1
    return total


def _corpus():
    return [
        pt.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)]),
        pt.from_vertices([(F(0),), (F(1, 2),)]),
        pt.from_vertices([(0, 0), (F(1, 2), 0), (0, F(1, 2))]),
        pt.from_vertices([(-2, -1), (F(5, 3), -1), (-2, F(4, 3))]),
        pt.from_vertices([(F(1, 2), 0), (0, F(1, 2))]),
    ]


def _box(p, n):
    """Integer bounding box of n·P."""
    return [math.ceil(n * c) for c in p.box[0]], [math.floor(n * c) for c in p.box[1]]


def test_counts_agree_with_brute_force():
    for poly in _corpus():
        for n in (0, 1, 2, 5, 11):
            lo, hi = _box(poly, n)
            ineqs = [(a, n * b) for a, b in poly.inequalities]
            eqs = [(c, n * d) for c, d in poly.equalities]
            expected = brute_force_count(lo, hi, ineqs, eqs)
            assert pt.count_lattice_points(poly, n) == expected, (poly.vertices, n)


def test_dilate_counts_match_single_counts():
    polys = _corpus() + [pt.load_polytope(path) for path in sorted(glob.glob(os.path.join(POLYTOPE_DIR, "*.poly")))]
    for poly in polys:
        for ns in ([], [0], [3, 1, 3], list(range(9)), [0, 7, 7, 2]):
            assert pt.dilate_counts(poly, ns) == [pt.count_lattice_points(poly, n) for n in ns], (poly.vertices, ns)


def test_negative_dilate_is_rejected():
    poly = _corpus()[0]
    with pytest.raises(ValueError, match="^dilation factor must be nonnegative$"):
        pt.count_lattice_points(poly, -1)
    with pytest.raises(ValueError, match="^dilation factor must be nonnegative$"):
        pt.dilate_counts(poly, [2, -1])


def test_count_box_direct():
    # x in [0,5], 2x <= 7  ->  x in {0,1,2,3}
    assert kn.count_box([0], [5], [((2,), 7)], []) == 4
    # equality filters to the even points of [0,6]
    assert kn.count_box([0], [6], [], [((2,), 4)]) == 1
    assert kn.count_box([3], [1], [], []) == 0
    # Last-column signs +, -, 0 and an equality pinning x_2 = (7 - x_1) / 2,
    # which is not an integer for even x_1.
    lo, hi = [-4, -4], [4, 4]
    ineqs = [((1, 2), 5), ((1, -3), 4), ((-1, 0), 2)]
    eqs = [((1, 2), 7)]
    for rows in ([], eqs):
        assert kn.count_box(lo, hi, ineqs, rows) == brute_force_count(lo, hi, ineqs, rows)
    assert kn.count_box(lo, hi, [], eqs) == 3  # x_1 in {-1, 1, 3}; x_1 = -3 needs x_2 = 5


def test_overflow_guard_falls_back_to_python():
    big = 2**63
    lo, hi = [0], [3]
    ineqs = [((big,), 2 * big)]
    assert not kn._fits_int64(lo, hi, ineqs)
    # 2^63·x <= 2^64  ->  x in {0, 1, 2}; int64 would overflow, the counter
    # must still return the exact answer on Python integers.
    assert kn.count_box(lo, hi, ineqs, []) == 3


def test_guard_bounds_the_chunk_sum(monkeypatch):
    # No rows at all, but a last axis so wide that a full chunk's sum of
    # slice lengths could pass 2^62.
    monkeypatch.setattr(kn, "_CHUNK_LIMIT", 1 << 16)
    assert kn._fits_int64([0, 0], [3, 2**44], [])
    assert not kn._fits_int64([0, 0], [3, 2**46], [])
    assert kn.count_box([0, 0], [3, 2**46], [], []) == 4 * (2**46 + 1)


def test_numpy_chunking_matches_python(monkeypatch):
    monkeypatch.setattr(kn, "_CHUNK_LIMIT", 16)
    lo, hi = [0, -1, 0, 0], [6, 5, 6, 6]
    ineqs = [((1, 1, 1, 1), 12), ((0, -1, 0, 2), 5), ((1, 0, -1, -3), 2), ((0, 0, 1, 0), 5)]
    eqs = [((1, 0, 0, 0), 3)]
    assert kn.count_box(lo, hi, ineqs, []) == brute_force_count(lo, hi, ineqs, [])
    assert kn.count_box(lo, hi, ineqs, eqs) == brute_force_count(lo, hi, ineqs, eqs)
    # Several boxes on the same normals, with 343, 7, 0 (empty), 1 and 18
    # prefixes: with chunks of 16 and of 1 prefix, chunk boundaries fall
    # inside boxes and between them.
    normals = [row for row, _ in ineqs]
    boxes = [
        (lo, hi, [12, 5, 2, 5], [3]),
        ([1, 0, 0, -2], [1, 0, 6, 4], [4, 2, 1, 2], [1]),
        ([0, 0, 0, 0], [2, -1, 2, 2], [9, 9, 9, 9], [0]),
        ([2, 2, 2, 0], [2, 2, 2, 5], [8, 3, 0, 2], [2]),
        ([-1, 0, 1, -3], [0, 2, 3, 3], [3, 4, -2, 2], [0]),
    ]
    for limit in (16, 1):
        monkeypatch.setattr(kn, "_CHUNK_LIMIT", limit)
        for rows in ([], [row for row, _ in eqs]):
            batch = [(l, h, b, d[: len(rows)]) for l, h, b, d in boxes]
            expected = [brute_force_count(l, h, list(zip(normals, b)), list(zip(rows, d))) for l, h, b, d in batch]
            assert kn.count_boxes(normals, rows, batch) == expected, (limit, rows)


def test_batch_guard_covers_its_largest_box():
    # In each batch one box fails the guard, by its width or by its
    # right-hand side, and int64 arithmetic would overflow on it, so the
    # whole batch must run on Python integers, in either order.
    wide, far = 2**62, 2**63 - 2
    assert not kn._fits_int64([0, 0], [3, wide], [])
    assert not kn._fits_int64([0, 0], [3, 3], [((-1, 1), far)])
    assert kn._fits_int64([0, 0], [3, 3], [((-1, 1), 4)])
    batches = [
        # Four slices of 2^62 + 1 points sum past 2^63.
        ([], [], [([0, 0], [3, 3], [], []), ([0, 0], [3, wide], [], [])], [16, 4 * (wide + 1)]),
        # s = far + x_1 passes 2^63 for x_1 >= 2.
        ([(-1, 1)], [], [([0, 0], [3, 3], [4], []), ([0, 0], [3, 3], [far], [])], [16, 16]),
        # Only an equality's right-hand side is large: x_2 = x_1 + 2^63 has
        # no point in the box, and 2^63 has no int64 form.
        ([], [(-1, 1)], [([0, 0], [3, 3], [], [0]), ([0, 0], [3, 3], [], [2**63])], [4, 0]),
    ]
    for ineq_normals, eq_normals, boxes, expected in batches:
        assert kn.count_boxes(ineq_normals, eq_normals, boxes) == expected
        assert kn.count_boxes(ineq_normals, eq_normals, boxes[::-1]) == expected[::-1]


_coeff = st.integers(-3, 3)


@st.composite
def _boxes(draw, max_width=4):
    """1-4 boxes on shared row normals, as (inequality normals, equality normals, boxes).

    Widths are 0-4, and 0-max_width on the last prefix axis.
    """
    m = draw(st.integers(1, 4))
    normal = st.lists(_coeff, min_size=m, max_size=m).map(tuple)
    ineq_normals = draw(st.lists(normal, max_size=4))
    eq_normals = draw(st.lists(normal, max_size=2))
    boxes = []
    for _ in range(draw(st.integers(1, 4))):
        lo = [draw(st.integers(-3, 2)) for _ in range(m)]
        # A width of 0 makes the box empty.
        hi = [l + draw(st.integers(0, max_width if j == m - 2 else 4)) - 1 for j, l in enumerate(lo)]
        b = [draw(st.integers(-8, 8)) for _ in ineq_normals]
        d = [draw(st.integers(-8, 8)) for _ in eq_normals]
        boxes.append((lo, hi, b, d))
    return ineq_normals, eq_normals, boxes


@pytest.mark.parametrize("python_ints", [False, True], ids=["int64", "object"])
@settings(max_examples=300)
@given(batch=_boxes())
def test_slice_counter_matches_brute_force(python_ints, batch):
    ineq_normals, eq_normals, boxes = batch
    rows = [(list(zip(ineq_normals, b)), list(zip(eq_normals, d))) for _, _, b, d in boxes]
    expected = [brute_force_count(lo, hi, *r) for (lo, hi, _, _), r in zip(boxes, rows)]
    if python_ints:
        with mock.patch.object(kn, "_fits_int64", lambda *args: False):
            assert kn.count_boxes(ineq_normals, eq_normals, boxes) == expected
            assert [kn.count_box(lo, hi, *r) for (lo, hi, _, _), r in zip(boxes, rows)] == expected
    else:
        assert all(kn._fits_int64(lo, hi, ineqs + eqs) for (lo, hi, _, _), (ineqs, eqs) in zip(boxes, rows))
        assert kn.count_boxes(ineq_normals, eq_normals, boxes) == expected
        assert [kn.count_box(lo, hi, *r) for (lo, hi, _, _), r in zip(boxes, rows)] == expected


@settings(max_examples=300)
@given(limit=st.integers(1, 7), lo=st.lists(st.integers(-3, 3), max_size=4), data=st.data())
def test_sub_boxes_tile_the_box(limit, lo, data):
    widths = [data.draw(st.integers(1, 9)) for _ in lo]
    hi = [l + w - 1 for l, w in zip(lo, widths)]
    with mock.patch.object(kn, "_CHUNK_LIMIT", limit):
        pieces = list(kn._sub_boxes(lo, widths))
        # Two copies of the box with a last axis appended, packed into chunks.
        chunks = list(kn._chunks([lo + [0]] * 2, [hi + [5]] * 2))
    # Each sub-box and each chunk holds at most the chunk limit of prefixes,
    # and the sub-boxes hold every point of the box once, in row-major order.
    assert all(math.prod(w) <= limit for _, w in pieces)
    assert all(sum(size for _, _, _, size in chunk) <= limit for chunk in chunks)
    assert [(k, c, w) for chunk in chunks for k, c, w, _ in chunk] == [(k, c, w) for k in (0, 1) for c, w in pieces]
    points = [x for corner, w in pieces for x in itertools.product(*(range(c, c + k) for c, k in zip(corner, w)))]
    assert points == list(itertools.product(*(range(l, l + w) for l, w in zip(lo, widths))))


# Batches that every chunk limit of 1-7 splits: the last prefix axis alone is
# wider than the limit; m = 1, with no prefix axis; no rows at all; and empty
# boxes between live ones.
_SPLIT_EXAMPLES = [
    ([(1, -2, 1), (0, 1, 0)], [], [([0, -4, 0], [1, 4, 2], [3, 2], []), ([0, 0, 0], [0, 8, 1], [9, 5], [])]),
    ([(2,), (-3,)], [(1,)], [([-5], [5], [7, 6], [2]), ([0], [-1], [1, 1], [0]), ([-2], [9], [3, 9], [1])]),
    ([], [], [([0, 0, 0], [2, 8, 1], [], []), ([0, 1, 0], [1, 0, 1], [], []), ([-1, -1, -1], [1, 1, 1], [], [])]),
    ([(1, 1, 1)], [(0, 1, -1)], [([0, 0, 0], [3, 3, 3], [5], [0]), ([1, 1, 2], [1, 0, 3], [5], [0]),
                                 ([0, 0, 0], [0, 0, 0], [5], [0]), ([-2, 0, 0], [2, 6, 2], [4], [1])]),
]


def _check_split_batch(limit, python_ints, batch):
    ineq_normals, eq_normals, boxes = batch
    expected = [
        brute_force_count(lo, hi, list(zip(ineq_normals, b)), list(zip(eq_normals, d))) for lo, hi, b, d in boxes
    ]
    with mock.patch.object(kn, "_CHUNK_LIMIT", limit):
        if python_ints:
            with mock.patch.object(kn, "_fits_int64", lambda *args: False):
                assert kn.count_boxes(ineq_normals, eq_normals, boxes) == expected, limit
        else:
            assert kn.count_boxes(ineq_normals, eq_normals, boxes) == expected, limit


@pytest.mark.parametrize("python_ints", [False, True], ids=["int64", "object"])
@pytest.mark.parametrize("batch", _SPLIT_EXAMPLES, ids=["wide-last-prefix", "m1", "no-rows", "empty-between"])
def test_split_examples_match_brute_force(python_ints, batch):
    for limit in range(1, 8):
        _check_split_batch(limit, python_ints, batch)


@pytest.mark.parametrize("python_ints", [False, True], ids=["int64", "object"])
@settings(max_examples=200)
@given(limit=st.integers(1, 7), batch=_boxes(max_width=9))
def test_split_boxes_match_brute_force(python_ints, limit, batch):
    _check_split_batch(limit, python_ints, batch)


def _relint_count(p, n):
    """#(relint(nP) ∩ Z^m): facet rows a·x <= n·b - 1, equality rows unchanged."""
    lo, hi = _box(p, n)
    ineqs = [(a, n * b - 1) for a, b in p.inequalities]
    eqs = [(c, n * d) for c, d in p.equalities]
    return kn.count_box(lo, hi, ineqs, eqs)


def _check_reciprocity(p):
    q = pt.ehrhart_quasipolynomial(p)
    period = pt.vertex_denominator_lcm(p)
    for n in range(1, 2 * period + 1):
        assert quasipoly.evaluate(q, -n) == (-1) ** p.dim * _relint_count(p, n), (p.vertices, n)


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(POLYTOPE_DIR, "*.poly"))),
                         ids=os.path.basename)
def test_ehrhart_macdonald_reciprocity_on_files(path):
    _check_reciprocity(pt.load_polytope(path))


@pytest.mark.parametrize("name", ["square", "cube", "halfseg", "tri_half", "tri_int"])
def test_ehrhart_macdonald_reciprocity_on_fixtures(name, request):
    _check_reciprocity(request.getfixturevalue(name))
