"""Rational generating functions p(t) / prod_i (1 - t^{e_i}) and their quasipolynomials.

The series coefficients are the values of a graded dimension count; past a
transient they agree with a quasipolynomial whose degree is one less than the
pole order at t = 1 and whose minimal period divides lcm(e_i).  The module
also verifies the grade bound for free modules over weighted polynomial
rings: the grade of the quasipolynomial stays strictly below the dimension of
the quotient by the ideal generated in degrees coprime to the period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import quasipoly
from .errors import InconsistentFitError
from .exactmath import prime_factors
from .quasipoly import QuasiPolynomial


def _trimmed(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class HilbertSeries:
    """Numerator coefficients (ascending in t) over a product of 1 - t^e factors."""

    numerator: tuple[int, ...]
    denominator_exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(e < 1 for e in self.denominator_exponents):
            raise ValueError("denominator exponents must be positive")

    @classmethod
    def make(cls, numerator: list[int] | tuple[int, ...], exponents: list[int] | tuple[int, ...]) -> "HilbertSeries":
        return cls(_trimmed(tuple(int(c) for c in numerator)), tuple(sorted(int(e) for e in exponents)))


@dataclass(frozen=True)
class WeightedModulePresentation:
    """Free module with generator degrees ``shifts`` over a weighted polynomial ring."""

    weights: tuple[int, ...]
    shifts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("need at least one variable weight")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive")
        if not self.shifts:
            raise ValueError("need at least one generator shift")
        if any(s < 0 for s in self.shifts):
            raise ValueError("shifts must be nonnegative")

    def series(self) -> HilbertSeries:
        num = [0] * (max(self.shifts) + 1)
        for s in self.shifts:
            num[s] += 1
        return HilbertSeries.make(num, self.weights)


def series_coefficients(hs: HilbertSeries, upto: int) -> list[int]:
    """Exact coefficients c_0..c_upto of the expanded series.

    Each factor 1/(1 - t^e) is applied as a running sum with stride e.
    """
    if upto < 0:
        raise ValueError("coefficient index must be nonnegative")
    c = list(hs.numerator[: upto + 1]) + [0] * max(0, upto + 1 - len(hs.numerator))
    for e in hs.denominator_exponents:
        for n in range(e, upto + 1):
            c[n] += c[n - e]
    return c


def denumerant(weights: list[int] | tuple[int, ...], n: int) -> int:
    """Number of ways to write n as a nonnegative integer combination of the weights.

    Independent oracle for the pure series 1/prod(1 - t^{e_i}): a memoized
    count over weight prefixes, not a series expansion.
    """
    if n < 0:
        raise ValueError("target must be nonnegative")
    ws = tuple(weights)
    memo: dict[tuple[int, int], int] = {}

    def count(idx: int, rem: int) -> int:
        if rem == 0:
            return 1
        if idx == len(ws):
            return 0
        key = (idx, rem)
        if key not in memo:
            total = count(idx + 1, rem)
            if rem >= ws[idx]:
                total += count(idx, rem - ws[idx])
            memo[key] = total
        return memo[key]

    return count(0, n)


def _divide_by_one_minus_t(p: list[int]) -> list[int]:
    """Quotient q with p(t) = (1 - t)·q(t); requires p(1) = 0."""
    q = []
    acc = 0
    for coeff in p[:-1]:
        acc += coeff
        q.append(acc)
    return q


def pole_order_at_one(hs: HilbertSeries) -> int:
    """Order of the pole at t = 1 after cancelling numerator roots there."""
    d = len(hs.denominator_exponents)
    p = list(_trimmed(hs.numerator))
    if not p:
        return 0
    m = 0
    while m < d and sum(p) == 0:
        p = _divide_by_one_minus_t(p)
        m += 1
    return d - m


def hilbert_quasipolynomial(hs: HilbertSeries) -> tuple[QuasiPolynomial, int]:
    """Quasipolynomial matching the series coefficients from some index on.

    Returns (Q, n0) where n0 is the least index with c_n = Q(n) for all
    n >= n0.  Write the series as p/q, q the product of the (1 - t^e) of
    degree E = sum(e), and divide: p = s·q + r with deg r < E.  The
    coefficients of r/q are a quasipolynomial for every n >= 0 (Stanley,
    *Enumerative Combinatorics I*, §4.4), and s has degree deg p - E with a
    nonzero top coefficient, so n0 = max(0, deg p - E + 1).  Q is fitted on
    the window that starts at n0 and cross-validated on one extra full
    period.
    """
    numerator = _trimmed(hs.numerator)
    d = len(hs.denominator_exponents)
    if not numerator:
        return quasipoly.ZERO, 0
    n0 = max(0, len(numerator) - sum(hs.denominator_exponents))
    if d == 0:
        return quasipoly.ZERO, n0
    lcm_e = math.lcm(*hs.denominator_exponents)
    # d+1 samples per residue: one more than the degree bound d-1 needs, so
    # the fit itself cross-checks a surplus point on every residue.
    top = n0 + lcm_e * (d + 1)
    coeffs = series_coefficients(hs, top + lcm_e - 1)
    q = quasipoly.fit_from_samples({n: coeffs[n] for n in range(n0, top)}, lcm_e, d - 1)
    for n in range(top, top + lcm_e):
        if quasipoly.evaluate(q, n) != coeffs[n]:
            raise InconsistentFitError(f"inconsistent fit: series coefficient at n={n} disagrees")
    return q, n0


def dim_quotient_coprime(weights: list[int] | tuple[int, ...], pi: int) -> int:
    """Dimension of the weighted polynomial ring modulo the ideal generated in
    degrees coprime to pi.

    Closed form: the maximum over primes p dividing pi of the number of
    weights divisible by p (0 when pi = 1).  A variable subset survives the
    ideal exactly when some prime divisor of pi divides every weight in it;
    dim_quotient_bruteforce cross-checks this identity in the test suite.
    """
    if pi < 1:
        raise ValueError("period must be positive")
    best = 0
    for p in prime_factors(pi):
        best = max(best, sum(1 for w in weights if w % p == 0))
    return best


def _reachable_degrees(weights: tuple[int, ...], cap: int) -> int:
    """Bitmask of degrees <= cap realized by monomials in the given weights."""
    reach = 1  # degree 0
    limit = (1 << (cap + 1)) - 1
    for w in weights:
        while True:
            grown = (reach | (reach << w)) & limit
            if grown == reach:
                break
            reach = grown
    return reach


def dim_quotient_bruteforce(
    weights: list[int] | tuple[int, ...], pi: int, cap: int
) -> int:
    """Brute-force oracle for dim_quotient_coprime.

    Monomials of positive degree <= cap with degree coprime to pi generate a
    monomial ideal; the quotient dimension is the number of variables minus a
    minimum vertex cover of the generator supports, i.e. the largest variable
    subset spanning no generator.  All subsets of the (few) variables are
    scanned; within a subset the achievable degrees are enumerated up to cap.
    """
    if pi < 1:
        raise ValueError("period must be positive")
    if cap < 1:
        raise ValueError("cap must be positive")
    ws = tuple(weights)
    d = len(ws)
    coprime_mask = 0
    for degree in range(1, cap + 1):
        if math.gcd(degree, pi) == 1:
            coprime_mask |= 1 << degree
    best = 0
    for bits in range(1 << d):
        subset = tuple(ws[i] for i in range(d) if bits & (1 << i))
        if _reachable_degrees(subset, cap) & coprime_mask:
            continue  # subset spans a generator: not independent of the ideal
        best = max(best, len(subset))
    return best


@dataclass(frozen=True)
class WeightedGradeReport:
    """Outcome of the grade-bound check on one weighted module presentation."""

    presentation: WeightedModulePresentation
    quasipolynomial: QuasiPolynomial
    n0: int
    pi_min: int
    grade: int
    bound: int
    holds: bool


def verify_grade_bound_weighted(p: WeightedModulePresentation) -> WeightedGradeReport:
    """Check grade Q < dim of the coprime-degree quotient for a free module.

    A False outcome is impossible for valid inputs and signals a defect in
    this package, not in the input.
    """
    q, n0 = hilbert_quasipolynomial(p.series())
    pi_min, canon = quasipoly.minimal_period(q)
    g = quasipoly.grade(canon)
    bound = dim_quotient_coprime(p.weights, pi_min)
    return WeightedGradeReport(
        presentation=p,
        quasipolynomial=canon,
        n0=n0,
        pi_min=pi_min,
        grade=g,
        bound=bound,
        holds=g < bound,
    )
