import math
from fractions import Fraction as F

import pytest

from quasigrade import quasipoly as qp
from quasigrade.errors import (
    InconsistentFitError,
    InputFormatError,
    InsufficientSamplesError,
)
from quasigrade.rng import XorShift64Star

from oracles import denumerant, polynomial

# floor(n/2) + 1 as a period-2 table: even row 1 + n/2, odd row 1/2 + n/2.
HALF = qp.QuasiPolynomial(2, 1, ((F(1), F(1, 2)), (F(1, 2), F(1, 2))))


def random_qp(rng: XorShift64Star, max_period=12, max_degree=4) -> qp.QuasiPolynomial:
    while True:
        period = rng.int_between(1, max_period)
        degree = rng.int_between(0, max_degree)
        rows = [[rng.fraction(9, 9) for _ in range(degree + 1)] for _ in range(period)]
        if any(row[degree] != 0 for row in rows):
            return qp.QuasiPolynomial(period, degree, tuple(tuple(r) for r in rows))


def test_evaluate_examples():
    assert qp.evaluate(polynomial([1, 2, 1]), 5) == 36
    assert qp.evaluate(HALF, 7) == 4
    assert qp.evaluate(qp.ZERO, 123) == 0
    assert qp.evaluate(HALF, -3) == -1  # residue 1 row at n = -3


def test_minimal_period_constant_rows():
    row = (F(2), F(1, 3))
    q = qp.QuasiPolynomial(6, 1, (row,) * 6)
    pi, canon = qp.minimal_period(q)
    assert pi == 1
    assert canon.coeffs == (row,)


def test_minimal_period_declared_four():
    q = qp.QuasiPolynomial(4, 1, (HALF.coeffs[0], HALF.coeffs[1]) * 2)
    pi, canon = qp.minimal_period(q)
    assert pi == 2
    assert canon == HALF


def test_minimal_period_denumerant_123():
    # Fit the coin-counting function for weights (1, 2, 3) from its DP oracle;
    # its constituents repeat only with period 6.
    samples = {n: denumerant((1, 2, 3), n) for n in range(1, 19)}
    fitted = qp.fit_from_samples(samples, 6, 2)
    assert fitted.period == 6
    pi, _ = qp.minimal_period(fitted)
    assert pi == 6


def test_grade_examples():
    assert qp.grade(polynomial([1, 2, 1])) == -1
    assert qp.grade(HALF) == 0
    samples = {n: denumerant((2, 2), n) for n in range(1, 9)}
    fitted = qp.fit_from_samples(samples, 2, 1)
    assert qp.grade(fitted) == 1
    assert qp.grade(qp.ZERO) == -1


def test_grade_needs_canonical_table():
    # Declared period 4 must not hide that the rows repeat with period 2.
    q = qp.QuasiPolynomial(4, 1, (HALF.coeffs[0], HALF.coeffs[1]) * 2)
    assert qp.grade(q) == 0


def test_shift_difference_examples():
    sq = polynomial([0, 0, 1])
    diff = qp.shift_difference(sq, 1)
    assert diff.coeffs == ((F(-1), F(2)),)  # 2n - 1
    assert qp.shift_difference(polynomial([5]), 3) == qp.ZERO
    diff2 = qp.shift_difference(HALF, 2)
    assert diff2.degree == 0 and diff2.period == 1
    assert diff2.coeffs == ((F(1),),)


def test_shift_difference_matches_pointwise():
    rng = XorShift64Star(3)
    for _ in range(25):
        q = random_qp(rng, max_period=6, max_degree=3)
        g = rng.int_between(1, 7)
        diff = qp.shift_difference(q, g)
        for n in range(-10, 25):
            assert qp.evaluate(diff, n) == qp.evaluate(q, n) - qp.evaluate(q, n - g)


def test_fit_examples():
    fitted = qp.fit_from_samples({n: (n + 1) ** 2 for n in (1, 2, 3)}, 1, 2)
    assert fitted.coeffs == ((F(1), F(2), F(1)),)
    fitted2 = qp.fit_from_samples({n: n // 2 + 1 for n in (1, 2, 3, 4)}, 2, 1)
    assert fitted2 == HALF
    with pytest.raises(InsufficientSamplesError, match="residue 0"):
        qp.fit_from_samples({1: 4, 2: 9}, 1, 2)
    with pytest.raises(InconsistentFitError, match="^inconsistent fit: the value at n=3 "):
        qp.fit_from_samples({n: 2**n for n in (0, 1, 2, 3)}, 1, 2)


def test_fit_round_trip():
    rng = XorShift64Star(5)
    for _ in range(25):
        q = random_qp(rng, max_period=8, max_degree=3)
        start = rng.int_between(-5, 5)
        window = (q.degree + 1) * q.period
        samples = {n: qp.evaluate(q, n) for n in range(start, start + window)}
        fitted = qp.fit_from_samples(samples, q.period, q.degree)
        _, canon = qp.minimal_period(q)
        assert fitted == canon


def test_canonicalization_soundness():
    rng = XorShift64Star(9)
    q = random_qp(rng, max_period=12, max_degree=4)
    doubled = qp.QuasiPolynomial(2 * q.period, q.degree, q.coeffs + q.coeffs)
    _, canon = qp.minimal_period(doubled)
    for _ in range(1000):
        n = rng.int_between(-10_000, 10_000)
        assert qp.evaluate(canon, n) == qp.evaluate(doubled, n)


def test_grade_range_and_period_one():
    rng = XorShift64Star(13)
    for _ in range(40):
        q = random_qp(rng)
        g = qp.grade(q)
        assert -1 <= g <= q.degree
        pi, _ = qp.minimal_period(q)
        assert (g == -1) == (pi == 1)


def test_shift_lemma_property():
    # With g coprime to the minimal period, the difference Q(n) - Q(n-g)
    # cannot have smaller grade than Q itself.
    rng = XorShift64Star(17)
    for _ in range(60):
        q = random_qp(rng)
        pi, canon = qp.minimal_period(q)
        g = rng.int_between(1, 24)
        while math.gcd(g, pi) != 1:
            g = rng.int_between(1, 24)
        assert qp.grade(canon) <= qp.grade(qp.shift_difference(canon, g))


def test_shift_difference_degree_drop():
    rng = XorShift64Star(19)
    for _ in range(40):
        q = random_qp(rng)
        g = rng.int_between(1, 9)
        diff = qp.shift_difference(q, g)
        assert diff.degree <= q.degree
        leading = {row[q.degree] for row in q.coeffs}
        if len(leading) == 1:
            assert diff.degree < q.degree


def test_format_parse_round_trip():
    rng = XorShift64Star(21)
    for _ in range(15):
        q = random_qp(rng, max_period=5, max_degree=3)
        assert qp.parse_quasipolynomial(qp.format_quasipolynomial(q)) == q
    assert qp.parse_quasipolynomial(qp.format_quasipolynomial(qp.ZERO)) == qp.ZERO


def test_format_shape():
    text = qp.format_quasipolynomial(HALF)
    assert text.splitlines() == ["period=2 degree=1", "0: 1/2 1", "1: 1/2 1/2"]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "period=2 degree=1\n0: 1/2 1",
        "period=x degree=1\n0: 1",
        "period=1 degree=0\n1: 2",
        "period=1 degree=-1\n0: 1",
        "period=1 degree=1\n0: 1 2 3",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(InputFormatError):
        qp.parse_quasipolynomial(text)
