"""Exact Hilbert and Ehrhart quasipolynomials: periods, grades, grade bounds.

The package computes, with exact rational arithmetic throughout:

* quasipolynomials (periodic-coefficient polynomials): evaluation, minimal
  period, grade, shift differences, interpolation from samples checked on
  every surplus sample;
* coefficient sequences of rational series p(t)/prod(1 - t^{e_i}) and their
  quasipolynomials, plus the grade bound for weighted free modules;
* rational polytopes, built on integers: exact lattice-point counts of
  dilates, Ehrhart quasipolynomials, face enumeration, and the lattice-point
  test on affine spans of faces, feeding the grade-versus-delta verifier.

The references that the tests compare against (volume, denumerant, pole
order, brute-force quotient dimension, Fraction linear algebra) live in
``tests/oracles.py``.
"""

from .exactmath import (
    format_rational,
    lcm_denominators,
    parse_rational,
    solve_integer,
)
from .faces import (
    Face,
    EhrhartGradeReport,
    affine_span_contains_lattice_point,
    enumerate_faces,
    format_report,
    min_delta_hypothesis,
    verify_ehrhart_grade_bound,
)
from .hilbert import (
    HilbertSeries,
    WeightedGradeReport,
    WeightedModulePresentation,
    dim_quotient_coprime,
    hilbert_quasipolynomial,
    series_coefficients,
    verify_grade_bound_weighted,
)
from .polytope import (
    RationalPolytope,
    affine_hull,
    count_lattice_points,
    ehrhart_quasipolynomial,
    format_polytope,
    from_inequalities,
    from_point_cloud,
    from_vertices,
    hrep_from_vrep,
    load_polytope,
    parse_polytope,
    vrep_from_hrep,
)
from .quasipoly import (
    QuasiPolynomial,
    evaluate,
    fit_from_samples,
    format_quasipolynomial,
    grade,
    minimal_period,
    parse_quasipolynomial,
    shift_difference,
)

__version__ = "0.1.0"
