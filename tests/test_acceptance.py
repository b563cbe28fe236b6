"""Acceptance suite: one test per criterion, each printing a PASS line.

Every comparison is exact (rational/integer equality); the only tolerances
are the per-criterion runtime budgets, asserted with generous margins.
Run with `pytest -s tests/test_acceptance.py` to see the PASS lines.
"""

import math
import time
from fractions import Fraction as F
from itertools import combinations_with_replacement

from quasigrade import cli, faces as fc, hilbert as hb, polytope as pt, quasipoly as qp
from quasigrade.exactmath import solve_integer
from quasigrade.rng import XorShift64Star

import numpy as np

from oracles import denumerant, dim_quotient_bruteforce, pole_order_at_one, polynomial, volume


def _report(num: int, name: str, elapsed: float, budget: float) -> None:
    print(f"\nACCEPTANCE {num} PASS {name} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_lattice_cases(capsys, square, cube):
    start = time.perf_counter()
    q = pt.ehrhart_quasipolynomial(square)
    assert q == polynomial([1, 2, 1])
    pi, _ = qp.minimal_period(q)
    assert pi == 1
    assert qp.grade(q) == -1
    assert fc.min_delta_hypothesis(square) == 0

    qc = pt.ehrhart_quasipolynomial(cube)
    assert qc == polynomial([1, 3, 3, 1])
    assert qp.grade(qc) == -1
    with capsys.disabled():
        _report(1, "lattice cases exact", time.perf_counter() - start, 1.0)


def test_criterion_2_half_segment(capsys, halfseg):
    start = time.perf_counter()
    report = fc.verify_ehrhart_grade_bound(halfseg)
    q = report.quasipolynomial
    assert q.period == 2 and q.degree == 1
    assert q.coeffs[0] == (F(1), F(1, 2))  # even: n/2 + 1
    assert q.coeffs[1] == (F(1, 2), F(1, 2))  # odd: n/2 + 1/2
    assert (report.pi_min, report.grade, report.delta_star, report.holds) == (2, 0, 1, True)
    for n in range(1, 21):
        brute = sum(1 for x in range(0, n + 1) if F(x) <= F(n, 2))
        assert pt.count_lattice_points(halfseg, n) == brute
        assert qp.evaluate(q, n) == brute
    with capsys.disabled():
        _report(2, "half-segment [0,1/2]", time.perf_counter() - start, 1.0)


def test_criterion_3_rational_triangle(capsys, tri_half):
    start = time.perf_counter()
    report = fc.verify_ehrhart_grade_bound(tri_half)
    q = report.quasipolynomial
    vol = volume(tri_half)
    assert vol == F(1, 8)
    assert all(row[2] == vol for row in q.coeffs)
    assert (report.grade, report.delta_star, report.holds) == (1, 2, True)
    for n in range(1, 25):
        brute = sum(
            1
            for x in range(0, n + 1)
            for y in range(0, n + 1)
            if F(x + y) <= F(n, 2)
        )
        assert pt.count_lattice_points(tri_half, n) == brute
        assert qp.evaluate(q, n) == brute
    with capsys.disabled():
        _report(3, "rational triangle conv{(0,0),(1/2,0),(0,1/2)}", time.perf_counter() - start, 5.0)


def test_criterion_4_hilbert_contracts(capsys):
    start = time.perf_counter()
    rng = XorShift64Star(2024)
    for _ in range(100):
        d = rng.int_between(1, 4)
        weights = tuple(rng.int_between(1, 8) for _ in range(d))
        numerator = [rng.int_between(0, 3) for _ in range(rng.int_between(1, 7))]
        if sum(numerator) == 0:
            numerator[rng.below(len(numerator))] = 1
        hs = hb.HilbertSeries.make(numerator, weights)
        q, _ = hb.hilbert_quasipolynomial(hs)
        assert q.degree == pole_order_at_one(hs) - 1
        pi, _ = qp.minimal_period(q)
        assert math.lcm(*weights) % pi == 0
        pure = hb.series_coefficients(hb.HilbertSeries.make([1], weights), 60)
        for n in range(61):
            assert pure[n] == denumerant(weights, n)
    with capsys.disabled():
        _report(4, "Hilbert-Serre contracts on 100 random series", time.perf_counter() - start, 30.0)


def test_criterion_5_weighted_suite(capsys):
    start = time.perf_counter()
    code = cli.main(["random-suite", "--mode", "weighted", "--seed", "1", "--count", "200"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "checked=200 violations=0\n"
    for d in (1, 2, 3):
        for weights in combinations_with_replacement(range(1, 7), d):
            for pi in range(1, 13):
                assert hb.dim_quotient_coprime(weights, pi) == dim_quotient_bruteforce(
                    weights, pi, 96
                ), (weights, pi)
    with capsys.disabled():
        _report(5, "weighted grade-bound suite + exhaustive quotient sweep", time.perf_counter() - start, 60.0)


def test_criterion_6_polytope_suite(capsys):
    start = time.perf_counter()
    code = cli.main(["random-suite", "--mode", "polytope", "--seed", "1", "--count", "100"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "checked=100 violations=0\n"
    with capsys.disabled():
        _report(6, "Ehrhart grade-bound suite on 100 random polytopes", time.perf_counter() - start, 120.0)


def test_criterion_7_lemma_suite(capsys):
    start = time.perf_counter()
    code = cli.main(["random-suite", "--mode", "lemma", "--seed", "1", "--count", "500"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "checked=500 violations=0\n"
    with capsys.disabled():
        _report(7, "shift-difference grade suite on 500 random quasipolynomials", time.perf_counter() - start, 10.0)


def _box_lattice_point_in_span(eqs, m, radius=20) -> bool:
    axes = [np.arange(-radius, radius + 1, dtype=np.int64)] * m
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in mesh], axis=1)
    mask = np.ones(pts.shape[0], dtype=bool)
    for c, d in eqs:
        mask &= pts @ np.array(c, dtype=np.int64) == d
    return bool(mask.any())


def test_criterion_8_span_oracle(capsys):
    start = time.perf_counter()
    rng = XorShift64Star(4096)
    for _ in range(200):
        m = rng.int_between(1, 3)
        anchor = [rng.fraction(4, 4) for _ in range(m)]
        eqs = []
        for _ in range(rng.int_between(1, m)):
            c = [rng.int_between(-4, 4) for _ in range(m)]
            rhs = sum((F(ci) * xi for ci, xi in zip(c, anchor)), F(0))
            scale = rhs.denominator
            eqs.append((tuple(ci * scale for ci in c), int(rhs * scale)))
        rows = [list(c) for c, _ in eqs]
        rhs_vec = [d for _, d in eqs]
        x = solve_integer(rows, rhs_vec)
        if x is not None:
            assert [sum(a * v for a, v in zip(row, x)) for row in rows] == rhs_vec
        else:
            assert not _box_lattice_point_in_span(eqs, m)
    with capsys.disabled():
        _report(8, "span lattice test vs exhaustive box search (200 instances)", time.perf_counter() - start, 30.0)


def test_criterion_9_construction_scaling(capsys, cloud40):
    start = time.perf_counter()
    cyclic = [tuple(t**j for j in range(1, 5)) for t in range(1, 13)]
    for points, m, facets in ((cloud40, 3, 37), (cyclic, 4, 54)):
        poly = pt.from_point_cloud(points)
        assert len(poly.inequalities) == facets
        assert pt.from_inequalities(poly.inequalities, m) == poly
    with capsys.disabled():
        _report(9, "40-point 3-D hull and the 54 facet rows of cyclic(12, 4)", time.perf_counter() - start, 2.0)
