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
    assert not kn._fits_int64(lo, hi, ineqs, [])
    # 2^63·x <= 2^64  ->  x in {0, 1, 2}; int64 would overflow, the counter
    # must still return the exact answer on Python integers.
    assert kn.count_box(lo, hi, ineqs, []) == 3


def test_guard_bounds_the_chunk_sum(monkeypatch):
    # No rows at all, but a last axis so wide that a full chunk's sum of
    # slice lengths could pass 2^62.
    monkeypatch.setattr(kn, "_CHUNK_LIMIT", 1 << 16)
    assert kn._fits_int64([0, 0], [3, 2**44], [], [])
    assert not kn._fits_int64([0, 0], [3, 2**46], [], [])
    assert kn.count_box([0, 0], [3, 2**46], [], []) == 4 * (2**46 + 1)


def test_numpy_chunking_matches_python(monkeypatch):
    monkeypatch.setattr(kn, "_CHUNK_LIMIT", 16)
    lo, hi = [0, -1, 0, 0], [6, 5, 6, 6]
    ineqs = [((1, 1, 1, 1), 12), ((0, -1, 0, 2), 5), ((1, 0, -1, -3), 2), ((0, 0, 1, 0), 5)]
    eqs = [((1, 0, 0, 0), 3)]
    assert kn.count_box(lo, hi, ineqs, []) == brute_force_count(lo, hi, ineqs, [])
    assert kn.count_box(lo, hi, ineqs, eqs) == brute_force_count(lo, hi, ineqs, eqs)


_coeff = st.integers(-3, 3)


@st.composite
def _boxes(draw):
    m = draw(st.integers(1, 4))
    lo = [draw(st.integers(-3, 2)) for _ in range(m)]
    # A width of 0 makes the box empty.
    hi = [l + draw(st.integers(0, 4)) - 1 for l in lo]
    row = st.tuples(st.lists(_coeff, min_size=m, max_size=m).map(tuple), st.integers(-8, 8))
    ineqs = draw(st.lists(row, max_size=4))
    eqs = draw(st.lists(row, max_size=2))
    return lo, hi, ineqs, eqs


@pytest.mark.parametrize("python_ints", [False, True], ids=["int64", "object"])
@settings(max_examples=300)
@given(box=_boxes())
def test_slice_counter_matches_brute_force(python_ints, box):
    lo, hi, ineqs, eqs = box
    expected = brute_force_count(lo, hi, ineqs, eqs)
    if python_ints:
        with mock.patch.object(kn, "_fits_int64", lambda *args: False):
            assert kn.count_box(lo, hi, ineqs, eqs) == expected
    else:
        assert kn._fits_int64(lo, hi, ineqs, eqs)
        assert kn.count_box(lo, hi, ineqs, eqs) == expected


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
