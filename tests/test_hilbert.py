import math
from itertools import combinations_with_replacement

from hypothesis import given, settings, strategies as st

from quasigrade import quasipoly as qp
from quasigrade.hilbert import (
    HilbertSeries,
    WeightedModulePresentation,
    denumerant,
    dim_quotient_bruteforce,
    dim_quotient_coprime,
    hilbert_quasipolynomial,
    pole_order_at_one,
    series_coefficients,
    verify_grade_bound_weighted,
)
from quasigrade.rng import XorShift64Star

from oracles import scanned_hilbert_quasipolynomial


def test_series_examples():
    assert series_coefficients(HilbertSeries.make([1], [1]), 4) == [1, 1, 1, 1, 1]
    assert series_coefficients(HilbertSeries.make([1], [1, 2]), 5) == [1, 1, 2, 2, 3, 3]
    assert series_coefficients(HilbertSeries.make([1, 1], [1]), 3) == [1, 2, 2, 2]


def test_denumerant_examples():
    # Independent brute force: direct enumeration of exponent triples.
    expected = sum(
        1
        for a in range(7)
        for b in range(4)
        for c in range(3)
        if a + 2 * b + 3 * c == 6
    )
    assert expected == 7
    assert denumerant((1, 2, 3), 6) == 7
    assert denumerant((1,), 5) == 1
    assert denumerant((2,), 3) == 0
    assert denumerant((2,), 0) == 1


def test_pole_order_examples():
    assert pole_order_at_one(HilbertSeries.make([1], [1, 2])) == 2
    assert pole_order_at_one(HilbertSeries.make([1, -1], [1, 1])) == 1
    assert pole_order_at_one(HilbertSeries.make([5], [])) == 0
    assert pole_order_at_one(HilbertSeries.make([0], [1])) == 0


def test_hilbert_quasipolynomial_examples():
    q, n0 = hilbert_quasipolynomial(HilbertSeries.make([1], [1, 2]))
    assert n0 == 0
    for n in range(21):
        assert qp.evaluate(q, n) == denumerant((1, 2), n)
    assert q.period == 2 and q.degree == 1

    q2, n02 = hilbert_quasipolynomial(HilbertSeries.make([1], [1, 1]))
    assert (q2.period, q2.degree, n02) == (1, 1, 0)
    assert q2.coeffs == ((1, 1),)

    q3, n03 = hilbert_quasipolynomial(HilbertSeries.make([1, -1], [1, 1]))
    assert (q3.degree, n03) == (0, 0)
    assert qp.evaluate(q3, 17) == 1


def test_hilbert_quasipolynomial_zero_dimensional():
    q, n0 = hilbert_quasipolynomial(HilbertSeries.make([5], []))
    assert q == qp.ZERO and n0 == 1
    q2, n02 = hilbert_quasipolynomial(HilbertSeries.make([1, 2, 3], []))
    assert q2 == qp.ZERO and n02 == 3
    q3, n03 = hilbert_quasipolynomial(HilbertSeries.make([0], [1, 2]))
    assert q3 == qp.ZERO and n03 == 0


def test_series_against_denumerant_exhaustive():
    # Weight order is irrelevant to both sides, so multisets cover all lists.
    for d in (1, 2, 3, 4):
        for weights in combinations_with_replacement(range(1, 9), d):
            coeffs = series_coefficients(HilbertSeries.make([1], weights), 60)
            for n in range(61):
                assert coeffs[n] == denumerant(weights, n)


def test_degree_and_period_contracts_random():
    rng = XorShift64Star(37)
    for _ in range(30):
        d = rng.int_between(1, 4)
        weights = tuple(rng.int_between(1, 8) for _ in range(d))
        numerator = [rng.int_between(0, 4) for _ in range(rng.int_between(1, 7))]
        if sum(numerator) == 0:
            numerator[0] = 1
        hs = HilbertSeries.make(numerator, weights)
        q, n0 = hilbert_quasipolynomial(hs)
        assert q.degree == pole_order_at_one(hs) - 1
        pi, _ = qp.minimal_period(q)
        assert math.lcm(*weights) % pi == 0
        coeffs = series_coefficients(hs, n0 + 10)
        for n in range(n0, n0 + 11):
            assert qp.evaluate(q, n) == coeffs[n]


@settings(max_examples=150)
@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=12),
    st.lists(st.integers(1, 6), min_size=0, max_size=4),
)
def test_closed_form_n0_matches_scan(numerator, weights):
    hs = HilbertSeries.make(numerator, weights)
    assert hilbert_quasipolynomial(hs) == scanned_hilbert_quasipolynomial(hs)


def test_dim_quotient_examples():
    assert dim_quotient_coprime((2, 3), 6) == 1
    assert dim_quotient_bruteforce((2, 3), 6, 30) == 1
    assert dim_quotient_coprime((2, 2), 2) == 2
    assert dim_quotient_bruteforce((2, 2), 2, 20) == 2
    assert dim_quotient_coprime((1, 1), 1) == 0
    assert dim_quotient_bruteforce((1,), 1, 5) == 0


def test_dim_quotient_closed_form_matches_bruteforce():
    for d in (1, 2, 3, 4):
        for weights in combinations_with_replacement(range(1, 9), d):
            for pi in range(1, 13):
                assert dim_quotient_coprime(weights, pi) == dim_quotient_bruteforce(
                    weights, pi, 96
                ), (weights, pi)


def test_verify_grade_bound_examples():
    r = verify_grade_bound_weighted(WeightedModulePresentation((1, 2), (0,)))
    assert (r.grade, r.bound, r.pi_min, r.holds) == (0, 1, 2, True)
    r2 = verify_grade_bound_weighted(WeightedModulePresentation((2, 2), (0,)))
    assert (r2.grade, r2.bound, r2.holds) == (1, 2, True)
    r3 = verify_grade_bound_weighted(WeightedModulePresentation((1, 1, 1), (0,)))
    assert (r3.grade, r3.bound, r3.pi_min, r3.holds) == (-1, 0, 1, True)


def test_grade_bound_holds_on_random_presentations():
    rng = XorShift64Star(43)
    for _ in range(200):
        d = rng.int_between(1, 4)
        weights = tuple(rng.int_between(1, 6) for _ in range(d))
        shifts = tuple(rng.int_between(0, 6) for _ in range(rng.int_between(1, 3)))
        report = verify_grade_bound_weighted(
            WeightedModulePresentation(weights, shifts)
        )
        assert report.holds, (weights, shifts, report.grade, report.bound)


def test_verify_grade_bound_with_shifts():
    r = verify_grade_bound_weighted(WeightedModulePresentation((2, 3), (0, 1, 5)))
    assert r.holds
    coeffs = series_coefficients(r.presentation.series(), r.n0 + 12)
    for n in range(r.n0, r.n0 + 13):
        assert qp.evaluate(r.quasipolynomial, n) == coeffs[n]
