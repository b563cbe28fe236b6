from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasigrade.errors import InputFormatError
from quasigrade.exactmath import (
    format_rational,
    lcm_denominators,
    parse_rational,
    rat_solve,
    solve_integer,
)
from quasigrade.rng import XorShift64Star

from oracles import (
    identity,
    int_det,
    int_rank,
    int_solve,
    mat_mul,
    rat_det,
    rat_rank,
    smith_normal_form,
    snf_solve,
)


@pytest.mark.parametrize(
    "text,value",
    [("3", F(3)), ("-3/2", F(-3, 2)), ("0", F(0)), ("4/6", F(2, 3)), ("  7/1 ", F(7))],
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["1/0", "+3", "1.5", "a", "1/2/3", "", "--1", "1/-2"])
def test_parse_rational_rejects(text):
    with pytest.raises(InputFormatError):
        parse_rational(text)


def test_format_rational():
    assert format_rational(F(-3, 2)) == "-3/2"
    assert format_rational(F(4, 2)) == "2"
    assert parse_rational(format_rational(F(22, 7))) == F(22, 7)


def test_lcm_denominators():
    assert lcm_denominators([F(1, 2), F(1, 3)]) == 6
    assert lcm_denominators([]) == 1
    assert lcm_denominators([F(2), F(3)]) == 1


def test_rat_rank_examples():
    assert rat_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rat_rank([[0, 0], [0, 0]]) == 0
    assert rat_rank([[1, 2], [2, 4]]) == 1


def test_snf_identity():
    a = identity(3)
    s, d, t = smith_normal_form(a)
    assert s == d == t == a


def test_snf_diag_2_3():
    s, d, t = smith_normal_form([[2, 0], [0, 3]])
    assert d == [[1, 0], [0, 6]]


def test_snf_zero():
    _, d, _ = smith_normal_form([[0]])
    assert d == [[0]]


def _check_snf(a):
    s, d, t = smith_normal_form(a)
    assert mat_mul(mat_mul(s, d), t) == a
    assert abs(int_det(s)) == 1
    assert abs(int_det(t)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    return diag


def test_snf_random_properties():
    rng = XorShift64Star(7)
    for _ in range(60):
        rows = rng.int_between(1, 4)
        cols = rng.int_between(1, 4)
        a = [[rng.int_between(-9, 9) for _ in range(cols)] for _ in range(rows)]
        diag = _check_snf(a)
        rank = rat_rank(a)
        assert rank == sum(1 for x in diag if x != 0)


def test_rank_matches_snf_of_cleared_rationals():
    rng = XorShift64Star(11)
    for _ in range(30):
        rows = rng.int_between(1, 3)
        cols = rng.int_between(1, 3)
        rat_rows = [
            [rng.fraction(4, 3) for _ in range(cols)] for _ in range(rows)
        ]
        scale = lcm_denominators([x for row in rat_rows for x in row])
        cleared = [[int(x * scale) for x in row] for row in rat_rows]
        diag = _check_snf(cleared)
        assert rat_rank(rat_rows) == sum(1 for x in diag if x)


def _mul_vector(rows, x):
    return [sum(a * v for a, v in zip(row, x)) for row in rows]


def test_solve_integer_examples():
    assert solve_integer([[2]], [4]) == [2]
    assert solve_integer([[2]], [3]) is None
    assert solve_integer([[1, 1], [0, 2]], [1, 3]) is None
    assert solve_integer([], []) == []
    with pytest.raises(ValueError):
        solve_integer([[1, 2]], [1, 2])


def _box_has_solution(rows, b, cols, radius=25) -> bool:
    axes = [np.arange(-radius, radius + 1, dtype=np.int64)] * cols
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in mesh], axis=1)
    mat = np.array(rows, dtype=np.int64).reshape(len(rows), cols)
    vals = pts @ mat.T
    return bool((vals == np.array(b, dtype=np.int64)).all(axis=1).any())


def test_solve_integer_random():
    rng = XorShift64Star(23)
    solved = unsolved = 0
    for _ in range(120):
        rows = rng.int_between(1, 3)
        cols = rng.int_between(1, 3)
        a = [[rng.int_between(-5, 5) for _ in range(cols)] for _ in range(rows)]
        b = [rng.int_between(-5, 5) for _ in range(rows)]
        x = solve_integer(a, b)
        if x is not None:
            solved += 1
            assert _mul_vector(a, x) == b
        else:
            unsolved += 1
            assert not _box_has_solution(a, b, cols)
    assert solved and unsolved  # the sample exercises both outcomes


@st.composite
def _systems(draw):
    """0-5 rows of 1-4 columns in -6..6, some of them zero or repeated, and b in -9..9."""
    cols = draw(st.integers(1, 4))
    row = st.lists(st.integers(-6, 6), min_size=cols, max_size=cols)
    pool = draw(st.lists(st.one_of(row, st.just([0] * cols)), min_size=1, max_size=3))
    m = draw(st.integers(0, 5))
    rows = draw(st.lists(st.one_of(row, st.sampled_from(pool)), min_size=m, max_size=m))
    rhs = draw(st.lists(st.integers(-9, 9), min_size=m, max_size=m))
    return rows, rhs, cols


@settings(max_examples=300)
@given(_systems())
def test_solve_integer_matches_smith_form(system):
    rows, rhs, cols = system
    x = solve_integer(rows, rhs)
    assert (x is None) == (snf_solve(rows, rhs, cols) is None)
    if x is not None:
        assert len(x) == (cols if rows else 0)
        assert _mul_vector(rows, x) == rhs
    elif cols <= 3:
        # A returned x may lie outside the box, so only None is checked there.
        assert not _box_has_solution(rows, rhs, cols, radius=12)


_int_rows = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=0, max_size=5
    )
)


@settings(max_examples=200)
@given(_int_rows)
def test_int_rank_matches_rat_rank(rows):
    assert int_rank(rows) == rat_rank(rows)


@settings(max_examples=200)
@given(st.integers(0, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
    )
))
def test_int_det_and_int_solve_match_fractions(system):
    rows, rhs = system
    n = len(rows)
    det = int_det(rows)
    assert det == (rat_det(rows) if n else 1)
    solved = int_solve(rows, rhs)
    if det == 0:
        assert solved is None
    else:
        num, den = solved
        assert den > 0
        assert [F(v, den) for v in num] == rat_solve(rows, rhs)


def test_int_solve_examples():
    assert int_solve([[2, 0], [0, 3]], [1, 1]) == ([3, 2], 6)
    assert int_solve([[0, 1], [1, 0]], [5, 7]) == ([7, 5], 1)
    assert int_solve([[1, 2], [2, 4]], [1, 2]) is None
    assert int_solve([], []) == ([], 1)
