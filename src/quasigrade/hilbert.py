"""Rational generating functions p(t) / prod_i (1 - t^{e_i}) and their quasipolynomials.

The series coefficients are the values of a graded dimension count; past a
transient they agree with a quasipolynomial whose degree is one less than the
pole order at t = 1 and whose minimal period divides lcm(e_i).  The module
also verifies the grade bound for free modules over weighted polynomial
rings: the grade of the quasipolynomial stays strictly below the dimension of
the quotient by the ideal generated in degrees coprime to the period.

Their independent checks (denumerant, pole order at t = 1, brute-force
quotient dimension) are references in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import quasipoly
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


def hilbert_quasipolynomial(hs: HilbertSeries) -> tuple[QuasiPolynomial, int]:
    """Quasipolynomial matching the series coefficients from some index on.

    Returns (Q, n0) where n0 is the least index with c_n = Q(n) for all
    n >= n0.  Write the series as p/q, q the product of the (1 - t^e) of
    degree E = sum(e), and divide: p = s·q + r with deg r < E.  The
    coefficients of r/q are a quasipolynomial for every n >= 0 (Stanley,
    *Enumerative Combinatorics I*, §4.4), and s has degree deg p - E with a
    nonzero top coefficient, so n0 = max(0, deg p - E + 1).  Q is fitted on
    the window of d+2 periods that starts at n0: d values on each residue fix
    the fit, and the fit checks the other two.
    """
    numerator = _trimmed(hs.numerator)
    d = len(hs.denominator_exponents)
    if not numerator:
        return quasipoly.ZERO, 0
    n0 = max(0, len(numerator) - sum(hs.denominator_exponents))
    if d == 0:
        return quasipoly.ZERO, n0
    lcm_e = math.lcm(*hs.denominator_exponents)
    top = n0 + lcm_e * (d + 2)
    coeffs = series_coefficients(hs, top - 1)
    return quasipoly.fit_from_samples({n: coeffs[n] for n in range(n0, top)}, lcm_e, d - 1), n0


def dim_quotient_coprime(weights: list[int] | tuple[int, ...], pi: int) -> int:
    """Dimension of the weighted polynomial ring modulo the ideal generated in
    degrees coprime to pi.

    Closed form: the maximum over primes p dividing pi of the number of
    weights divisible by p (0 when pi = 1).  A variable subset survives the
    ideal exactly when some prime divisor of pi divides every weight in it;
    the tests check this identity against a brute-force search over variable
    subsets.
    """
    if pi < 1:
        raise ValueError("period must be positive")
    best = 0
    for p in prime_factors(pi):
        best = max(best, sum(1 for w in weights if w % p == 0))
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
    g = quasipoly.grade(q)
    bound = dim_quotient_coprime(p.weights, q.period)
    return WeightedGradeReport(
        presentation=p,
        quasipolynomial=q,
        n0=n0,
        pi_min=q.period,
        grade=g,
        bound=bound,
        holds=g < bound,
    )
