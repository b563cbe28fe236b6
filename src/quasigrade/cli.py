"""Command-line front end.

Exit codes: 0 on success (all checks hold), 1 when a verifier reports a
violated inequality, an internal fit validation fails or an internal
assertion trips (all signal a defect in this package, never bad input), 2 on
malformed or infeasible input and on input too large for the memory at hand.
When the reader of stdout goes away (as in ``... | head -1``), the command
stops quietly and exits 0.

``main`` builds the argument parser on its first call and reuses it for every
later call in the same process, so in-process callers do not pay for it
again; each call still parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from fractions import Fraction
from typing import Sequence

from . import faces as faces_mod
from . import hilbert, polytope, quasipoly
from .errors import InconsistentFitError, QuasigradeError
from .hilbert import HilbertSeries, WeightedModulePresentation
from .rng import XorShift64Star

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2


def _parse_int_list(text: str, what: str, minimum: int | None = None) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise QuasigradeError(f"{what} must be a comma-separated integer list") from None
    if minimum is not None and any(v < minimum for v in values):
        raise QuasigradeError(f"{what} entries must be >= {minimum}")
    return values


def _require_nonnegative(value: int | None, flag: str) -> None:
    if value is not None and value < 0:
        raise QuasigradeError(f"{flag} must be >= 0")


def _cmd_ehrhart(args: argparse.Namespace) -> int:
    _require_nonnegative(args.max_dilate, "--max-dilate")
    poly = polytope.load_polytope(args.file)
    counts: dict[int, int] = {}
    q = polytope.ehrhart_quasipolynomial(poly, counts)
    print(quasipoly.format_quasipolynomial(q))
    if args.max_dilate is not None:
        ns = range(1, args.max_dilate + 1)
        missing = [n for n in ns if n not in counts]
        counts.update(zip(missing, polytope.dilate_counts(poly, missing)))
        for n in ns:
            print(f"count n={n} value={counts[n]}")
    return EXIT_OK


def _cmd_faces(args: argparse.Namespace) -> int:
    poly = polytope.load_polytope(args.file)
    for i, v in enumerate(poly.vertices):
        coords = " ".join(str(Fraction(c)) for c in v)
        print(f"vertex {i}: {coords}")
    for face in faces_mod.enumerate_faces(poly):
        print(faces_mod.format_face(face, faces_mod.affine_span_contains_lattice_point(face)))
    return EXIT_OK


def _cmd_verify_polytope(args: argparse.Namespace) -> int:
    poly = polytope.load_polytope(args.file)
    report = faces_mod.verify_ehrhart_grade_bound(poly)
    print(faces_mod.format_report(report))
    return EXIT_OK if report.holds else EXIT_VIOLATION


def _cmd_hilbert(args: argparse.Namespace) -> int:
    weights = _parse_int_list(args.weights, "--weights", 1)
    numerator = _parse_int_list(args.numerator, "--numerator") if args.numerator else (1,)
    series = HilbertSeries.make(numerator, weights)
    q, n0 = hilbert.hilbert_quasipolynomial(series)
    print(quasipoly.format_quasipolynomial(q))
    print(f"n0={n0}")
    return EXIT_OK


def _cmd_verify_weighted(args: argparse.Namespace) -> int:
    weights = _parse_int_list(args.weights, "--weights", 1)
    shifts = _parse_int_list(args.shifts, "--shifts", 0)
    report = hilbert.verify_grade_bound_weighted(
        WeightedModulePresentation(weights=weights, shifts=shifts)
    )
    print(f"grade={report.grade}")
    print(f"bound={report.bound}")
    print(f"period={report.pi_min}")
    print(f"holds={'true' if report.holds else 'false'}")
    print(quasipoly.format_quasipolynomial(report.quasipolynomial))
    return EXIT_OK if report.holds else EXIT_VIOLATION


def _cmd_qp_grade(args: argparse.Namespace) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        q = quasipoly.parse_quasipolynomial(fh.read())
    pi_min, canon = quasipoly.minimal_period(q)
    print(f"grade={quasipoly.grade(canon)}")
    print(f"period={pi_min}")
    print(quasipoly.format_quasipolynomial(canon))
    return EXIT_OK


def _random_weighted(rng: XorShift64Star) -> WeightedModulePresentation:
    d = rng.int_between(1, 4)
    weights = tuple(rng.int_between(1, 6) for _ in range(d))
    shifts = tuple(rng.int_between(0, 6) for _ in range(rng.int_between(1, 3)))
    return WeightedModulePresentation(weights=weights, shifts=shifts)


def _random_polytope(rng: XorShift64Star) -> polytope.RationalPolytope:
    npoints = rng.int_between(3, 6)
    points = [tuple(rng.fraction(3, 3) for _ in range(2)) for _ in range(npoints)]
    return polytope.from_point_cloud(points)


def _random_quasipolynomial(rng: XorShift64Star) -> quasipoly.QuasiPolynomial:
    while True:
        period = rng.int_between(1, 12)
        degree = rng.int_between(0, 4)
        rows = [
            [rng.fraction(9, 9) for _ in range(degree + 1)] for _ in range(period)
        ]
        if any(row[degree] != 0 for row in rows):
            return quasipoly.QuasiPolynomial(
                period, degree, tuple(tuple(row) for row in rows)
            )


def random_suite(mode: str, seed: int, count: int) -> int:
    """Run `count` randomized checks of the selected verifier; returns violations."""
    rng = XorShift64Star(seed)
    violations = 0
    for _ in range(count):
        if mode == "weighted":
            report = hilbert.verify_grade_bound_weighted(_random_weighted(rng))
            ok = report.holds
        elif mode == "polytope":
            ereport = faces_mod.verify_ehrhart_grade_bound(_random_polytope(rng))
            ok = ereport.holds
        elif mode == "lemma":
            q = _random_quasipolynomial(rng)
            pi_min, canon = quasipoly.minimal_period(q)
            while True:
                g = rng.int_between(1, 24)
                if math.gcd(g, pi_min) == 1:
                    break
            diff = quasipoly.shift_difference(canon, g)
            ok = quasipoly.grade(canon) <= quasipoly.grade(diff)
        else:
            raise QuasigradeError(f"unknown mode {mode!r}")
        if not ok:
            violations += 1
    return violations


def _cmd_random_suite(args: argparse.Namespace) -> int:
    _require_nonnegative(args.count, "--count")
    violations = random_suite(args.mode, args.seed, args.count)
    print(f"checked={args.count} violations={violations}")
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasigrade",
        description="Exact Hilbert/Ehrhart quasipolynomials, periods, grades and grade bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ehrhart", help="fit the lattice-count quasipolynomial of a polytope")
    p.add_argument("file", help="polytope file")
    p.add_argument("--max-dilate", type=int, default=None, help="also print counts for n=1..N")
    p.set_defaults(func=_cmd_ehrhart)

    p = sub.add_parser("faces", help="list faces and their span lattice tests")
    p.add_argument("file", help="polytope file")
    p.set_defaults(func=_cmd_faces)

    p = sub.add_parser("verify-polytope", help="check grade < delta_star on one polytope")
    p.add_argument("file", help="polytope file")
    p.set_defaults(func=_cmd_verify_polytope)

    p = sub.add_parser("hilbert", help="quasipolynomial of a rational series")
    # argparse takes "-1" for a value but "-1,3" for an unknown option.  This
    # parser has no option that starts with a digit, so any token that does
    # is a value, and a negative numerator can follow "--numerator".
    p._negative_number_matcher = re.compile(r"^-\d")
    p.add_argument("--weights", required=True, help="denominator exponents e1,e2,...")
    p.add_argument("--numerator", default="", help="ascending numerator coefficients c0,c1,...")
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("verify-weighted", help="check the grade bound for a weighted free module")
    p.add_argument("--weights", required=True, help="variable degrees e1,e2,...")
    p.add_argument("--shifts", default="0", help="generator degrees s1,s2,...")
    p.set_defaults(func=_cmd_verify_weighted)

    p = sub.add_parser("qp-grade", help="grade and minimal period of a quasipolynomial file")
    p.add_argument("file", help="quasipolynomial file")
    p.set_defaults(func=_cmd_qp_grade)

    p = sub.add_parser("random-suite", help="seeded randomized verification")
    p.add_argument("--mode", required=True, choices=("polytope", "weighted", "lemma"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=_cmd_random_suite)

    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first call of main


def main(argv: Sequence[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at the null device, so that the flush at exit cannot
        # raise again on the closed pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except InconsistentFitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (QuasigradeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
