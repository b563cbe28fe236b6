"""Seeded input generators, instance runners and output oracles.

Every input is drawn from ``random.Random`` streams owned by the benchmark;
the program only sees polytopes, argv lists and point lists.  The oracles
here share no code with the program: they parse its text output and check
it against the benchmark's own brute-force counts, power-series expansions
and combinatorial identities.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterator


@dataclass(frozen=True)
class Instance:
    index: int
    kind: str
    data: tuple


# ---------------------------------------------------------------- generators


def _frac(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def gen_planar(rng: random.Random) -> tuple:
    """Planar cloud of 3-6 points a/b, |a| <= 3, 1 <= b <= 3 (random-suite polytope mode)."""
    k = rng.randint(3, 6)
    return tuple((_frac(rng, 3, 3), _frac(rng, 3, 3)) for _ in range(k))


# Strata (ambient dimension m, vertex-denominator lcm D, box width w).  The
# simplex has bounding box [0, w]^m and --max-dilate is D·(m+2) + 2, just past
# the fit and validation dilates, so cost grows like (w·D)^m·D.  Every block of
# the instance stream holds each stratum once, so every run sees the same mix
# of costs whatever the seed.  The strata are listed by cost, each about 1.6x
# to 3x the one before.  With five strata the median falls inside the third
# and the 90th percentile inside the fifth, instead of on a boundary between
# two strata, where it would jump from run to run.  D and w are capped to
# keep a block under a second: (3, 12, 1) alone takes about 0.8 s.
SIMPLEX_STRATA = ((3, 2, 2), (4, 2, 1), (3, 4, 2), (3, 8, 1), (4, 2, 2))


def _simplex_vertices(rng: random.Random, m: int, d: int, w: int) -> tuple:
    """Full-dimensional rational simplex with bounding box [0, w]^m and vertex-denominator lcm d.

    Fixing the bounding box fixes the number of box points the counter
    visits, so instances of one stratum cost about the same.
    """
    while True:
        verts = [[Fraction(rng.randint(0, w * d), d) for _ in range(m)] for _ in range(m + 1)]
        for j in range(m):
            low, high = rng.sample(range(m + 1), 2)
            verts[low][j], verts[high][j] = Fraction(0), Fraction(w)
        # A reduced fraction with denominator d on a coordinate that is not an extreme.
        unit = rng.choice([c for c in range(1, w * d) if math.gcd(c, d) == 1])
        i, j = rng.randint(0, m), rng.randint(0, m - 1)
        if verts[i][j] in (0, w):
            continue
        verts[i][j] = Fraction(unit, d)
        if len({tuple(v) for v in verts}) == m + 1 and _det(_edges(verts)) != 0:
            return tuple(tuple(v) for v in verts)


def gen_simplex(rng: random.Random, stratum: tuple) -> tuple:
    m, d, w = stratum
    return (_simplex_vertices(rng, m, d, w), d * (m + 2) + 2)


# Strata (number of weights d, lcm L of the weights).  The fit solves one
# d x d system per residue mod L, so cost grows like L·d^2; L = 2520 needs at
# least four weights from 2..12 (8, 9, 5, 7).  Every block holds each stratum
# once, so every run sees the same mix of periods whatever the seed.  The
# strata are listed by cost.  With fifteen of them the median falls inside
# the eighth, (4, 84), and the 90th percentile inside the fourteenth,
# (5, 420), instead of on a boundary between two strata, where it would jump
# from run to run.  Both are about 1.5x or more away from their neighbours.
WEIGHTED_STRATA = (
    (3, 6), (3, 12), (3, 20), (4, 12), (4, 30), (3, 60), (5, 24),
    (4, 84),
    (6, 60), (3, 280), (5, 120), (3, 360), (4, 210),
    (5, 420), (4, 2520),
)


def gen_weighted(rng: random.Random, stratum: tuple) -> tuple:
    """d weights in 2..12 with lcm exactly L, and 1-3 shifts in 0..6."""
    d, lcm = stratum
    divisors = [w for w in range(2, 13) if lcm % w == 0]
    while True:
        weights = tuple(rng.choice(divisors) for _ in range(d))
        if math.lcm(*weights) == lcm:
            break
    shifts = tuple(rng.randint(0, 6) for _ in range(rng.randint(1, 3)))
    return (weights, shifts)


# Strata (free points k, total points t).  The k free points lie on the
# moment curve (s, s^2, s^3) at distinct rationals s = a/b, |a| <= 3,
# 1 <= b <= 2, so all of them are vertices and the hull always has 2k - 4
# facets.  The other t - k points are rational convex combinations of the
# free ones and are never vertices, so hrep_from_vrep still scans C(t, 3)
# subsets.  Twelve random points made hulls of up to 16 facets, on which
# vrep_from_hrep's Fourier-Motzkin step took up to 22 s for one instance, and
# the varying facet count made the cost of a stratum vary by 2x.
CLOUD_STRATA = ((4, 7), (4, 10), (5, 12))

# Strata (box half-width B, corner cuts k, loose cuts r).  The box is
# |x_i| <= B.  A corner cut at corner v = B·e has normal a = e ⊙ p, with p a
# permutation of (1, 1, 1) or (1, 1, 2), and right-hand side a·v - t with
# 1 <= t <= B - 1, so it contains the origin and meets no other cut.  A loose
# cut has a random normal in [-3, 3]^3 and a right-hand side that keeps the
# whole box inside, so it adds a row but no facet.  Every instance of a
# stratum has 6 + k facets and 8 + 2k vertices.
#
# A block is the three cloud strata, then the two H-representation strata:
# five strata listed by cost, each about 1.5x or more above the one before
# from the third on.  The median falls inside the third, the 90th percentile
# inside the fifth.
HREP_STRATA = ((2, 2, 1), (2, 3, 3))


def gen_cloud(rng: random.Random, stratum: tuple) -> tuple:
    free, total = stratum
    params = rng.sample(sorted({Fraction(a, b) for a in range(-3, 4) for b in (1, 2)}), free)
    pts = [(s, s * s, s * s * s) for s in params]
    for _ in range(total - free):
        chosen = rng.sample(pts[:free], rng.randint(2, 4))
        lam = [rng.randint(1, 2) for _ in chosen]
        pts.append(tuple(sum((l * p[j] for l, p in zip(lam, chosen)), Fraction(0)) / sum(lam) for j in range(3)))
    rng.shuffle(pts)
    return tuple(pts)


def gen_hrep(rng: random.Random, stratum: tuple) -> tuple:
    half, corners, loose = stratum
    rows = []
    for j in range(3):
        e = [0, 0, 0]
        e[j] = 1
        rows.append((tuple(e), half))
        rows.append((tuple(-x for x in e), half))
    for corner in rng.sample(list(product((1, -1), repeat=3)), corners):
        p = rng.choice([(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)])
        a = tuple(e * c for e, c in zip(corner, p))
        rows.append((a, half * sum(p) - rng.randint(1, half - 1)))
    for _ in range(loose):
        a = (0, 0, 0)
        while not any(a):
            a = tuple(rng.randint(-3, 3) for _ in range(3))
        rows.append((a, half * sum(map(abs, a)) + rng.randint(0, 2)))
    rng.shuffle(rows)
    return tuple(rows)


# ------------------------------------------------------------------ runners


def _call_cli(cli, argv: list[str]) -> tuple[str, int]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return buf.getvalue(), code


def _format_rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def write_poly_file(path: str, verts: tuple) -> None:
    lines = [f"ambient {len(verts[0])}", f"vertices {len(verts)}"]
    lines += [" ".join(_format_rat(c) for c in v) for v in verts]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class Workload:
    """One workload: an instance stream, a runner and an oracle."""

    name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def instances(self, stream: str = "timed") -> Iterator[Instance]:
        rng = random.Random(f"{self.name}/{stream}/{self.seed}")
        i = 0
        while True:
            for kind, make in self.block():
                yield Instance(i, kind, make(rng))
                i += 1

    def block(self) -> list[tuple[str, Callable]]:
        raise NotImplementedError

    def prepare(self, inst: Instance) -> object:
        """Untimed per-instance preparation (for example writing an input file)."""
        return inst.data

    def run(self, mods, prepared) -> tuple[str, int]:
        raise NotImplementedError

    def check(self, inst: Instance, output: str, code: int) -> str | None:
        """None when the output is correct, otherwise a one-line reason."""
        raise NotImplementedError


class PlanarVerify(Workload):
    name = "planar-verify"

    def block(self):
        return [("cloud2d", gen_planar)]

    def run(self, mods, points):
        poly = mods.polytope.from_point_cloud(points)
        report = mods.faces.verify_ehrhart_grade_bound(poly)
        return mods.faces.format_report(report) + "\n", 0 if report.holds else 1

    def check(self, inst, output, code):
        return check_polytope_report(output, code)


class SimplexEhrhart(Workload):
    name = "simplex-ehrhart"

    def block(self):
        return [(f"m{m}-D{d}-w{w}", lambda rng, s=(m, d, w): gen_simplex(rng, s)) for m, d, w in SIMPLEX_STRATA]

    def prepare(self, inst):
        verts, n_max = inst.data
        path = os.path.join(self.workdir, f"simplex-{inst.index % 64}.poly")
        write_poly_file(path, verts)
        return ["ehrhart", path, "--max-dilate", str(n_max)]

    def run(self, mods, argv):
        return _call_cli(mods.cli, argv)

    def check(self, inst, output, code):
        return check_ehrhart_output(inst.data, output, code)


class WeightedHilbert(Workload):
    name = "weighted-hilbert"

    def block(self):
        return [(f"d{d}-L{lcm}", lambda rng, s=(d, lcm): gen_weighted(rng, s)) for d, lcm in WEIGHTED_STRATA]

    def prepare(self, inst):
        weights, shifts = inst.data
        return [
            "verify-weighted",
            "--weights", ",".join(map(str, weights)),
            "--shifts", ",".join(map(str, shifts)),
        ]

    def run(self, mods, argv):
        return _call_cli(mods.cli, argv)

    def check(self, inst, output, code):
        return check_weighted_output(inst.data, output, code)


class CloudFaces(Workload):
    name = "cloud-faces"

    def block(self):
        clouds = [(f"cloud-k{k}-t{t}", lambda rng, s=(k, t): gen_cloud(rng, s)) for k, t in CLOUD_STRATA]
        hreps = [(f"hrep-B{b}-k{k}-r{r}", lambda rng, s=(b, k, r): gen_hrep(rng, s)) for b, k, r in HREP_STRATA]
        return clouds + hreps

    def prepare(self, inst):
        return (inst.kind, inst.data)

    def run(self, mods, prepared):
        kind, data = prepared
        if kind.startswith("cloud"):
            poly = mods.polytope.from_point_cloud(data)
        else:
            poly = mods.polytope.from_inequalities(data, 3)
        lines = []
        for i, v in enumerate(poly.vertices):
            lines.append(f"vertex {i}: " + " ".join(str(Fraction(c)) for c in v))
        for face in mods.faces.enumerate_faces(poly):
            ok = mods.faces.affine_span_contains_lattice_point(face)
            verts = ",".join(str(i) for i in face.vertex_indices)
            lines.append(f"face dim={face.dim} vertices={verts} span_lattice={'true' if ok else 'false'}")
        return "\n".join(lines) + "\n", 0

    def check(self, inst, output, code):
        return check_faces_output(inst.kind, inst.data, output, code)


WORKLOADS = {w.name: w for w in (PlanarVerify, SimplexEhrhart, WeightedHilbert, CloudFaces)}


# ------------------------------------------------------------------ oracles


def _parse_qp(lines: list[str]) -> tuple[int, int, list[list[Fraction]]]:
    """Parse a 'period=p degree=u' block; rows hold coefficients, top power first."""
    head = lines[0].split()
    period = int(head[0].split("=")[1])
    degree = int(head[1].split("=")[1])
    rows = []
    if degree >= 0:
        for r in range(period):
            tag, _, rest = lines[1 + r].partition(":")
            if int(tag) != r:
                raise ValueError(f"row {r} out of order")
            rows.append([Fraction(t) for t in rest.split()])
    return period, degree, rows


def _qp_value(period: int, rows: list[list[Fraction]], n: int) -> Fraction:
    if not rows:
        return Fraction(0)
    acc = Fraction(0)
    for c in rows[n % period]:
        acc = acc * n + c
    return acc


def _qp_grade(period: int, degree: int, rows: list[list[Fraction]]) -> int:
    for i in range(degree + 1):  # i counts from the top power down
        if any(row[i] != rows[0][i] for row in rows):
            return degree - i
    return -1


def _keyvals(lines: list[str]) -> dict[str, str]:
    out = {}
    for line in lines:
        key, sep, val = line.partition("=")
        if sep and " " not in line and ":" not in line:
            out[key] = val
    return out


def check_polytope_report(output: str, code: int) -> str | None:
    lines = output.splitlines()
    kv = _keyvals(lines[:6])
    if code != 0:
        return f"exit code {code}"
    if kv.get("holds") != "true":
        return "holds is not true"
    grade = int(kv["grade"])
    qp_at = next(i for i, ln in enumerate(lines) if ln.startswith("period=") and " degree=" in ln)
    period, degree, rows = _parse_qp(lines[qp_at:])
    if _qp_grade(period, degree, rows) != grade or period != int(kv["period"]):
        return "printed grade or period disagrees with the printed table"
    if kv["delta_star"] != "none" and not grade < int(kv["delta_star"]):
        return "holds=true but grade >= delta_star"
    return None


def _edges(verts) -> list[list[Fraction]]:
    v0 = verts[0]
    return [[Fraction(v[j]) - v0[j] for j in range(len(v0))] for v in verts[1:]]


def _det(rows: list[list[Fraction]]) -> Fraction:
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def brute_force_simplex_count(verts, n: int) -> int:
    """Integer points of n·conv(verts) by barycentric coordinates over the bounding box."""
    m = len(verts[0])
    # Column j of the edge matrix is v_{j+1} - v_0, so lambda = E^{-1}(x - n·v_0).
    edges_t = [list(col) for col in zip(*_edges(verts))]
    inv = _inverse(edges_t)
    base = [n * c for c in verts[0]]
    lo = [math.ceil(n * min(v[j] for v in verts)) for j in range(m)]
    hi = [math.floor(n * max(v[j] for v in verts)) for j in range(m)]
    total = 0
    for x in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        y = [x[j] - base[j] for j in range(m)]
        lam = [sum((row[j] * y[j] for j in range(m)), Fraction(0)) for row in inv]
        if all(t >= 0 for t in lam) and sum(lam) <= n:
            total += 1
    return total


BRUTE_FORCE_DILATES = (1, 2)


def check_ehrhart_output(data, output: str, code: int) -> str | None:
    verts, n_max = data
    if code != 0:
        return f"exit code {code}"
    lines = output.splitlines()
    period, degree, rows = _parse_qp(lines)
    if degree != len(verts[0]):
        return f"degree {degree} is not the dimension {len(verts[0])}"
    counts = {}
    for line in lines[1 + period :]:
        n_part, v_part = line[len("count ") :].split()
        counts[int(n_part[2:])] = int(v_part[6:])
    if sorted(counts) != list(range(1, n_max + 1)):
        return "missing count lines"
    for n, value in counts.items():
        if _qp_value(period, rows, n) != value:
            return f"printed count at n={n} is not the fitted E_P({n})"
    for n in BRUTE_FORCE_DILATES:
        if brute_force_simplex_count(verts, n) != counts[n]:
            return f"count at n={n} disagrees with the brute-force count"
    return None


def series_expansion(weights, shifts, upto: int) -> list[int]:
    """Coefficients of sum_s t^s / prod_e (1 - t^e), by multiplying truncated geometric series."""
    c = [0] * (upto + 1)
    for s in shifts:
        if s <= upto:
            c[s] += 1
    for e in weights:
        nxt = [0] * (upto + 1)
        for start in range(upto + 1):
            if c[start]:
                for n in range(start, upto + 1, e):
                    nxt[n] += c[start]
        c = nxt
    return c


def _prime_divisors(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, int(p**0.5) + 1))]


def check_weighted_output(data, output: str, code: int) -> str | None:
    weights, shifts = data
    if code != 0:
        return f"exit code {code}"
    lines = output.splitlines()
    kv = _keyvals(lines[:4])
    if kv.get("holds") != "true":
        return "holds is not true"
    period, degree, rows = _parse_qp(lines[4:])
    if period != int(kv["period"]) or math.lcm(*weights) % period:
        return "period does not divide lcm(weights)"
    if degree != len(weights) - 1:
        return f"degree {degree} is not {len(weights) - 1}"
    grade = _qp_grade(period, degree, rows)
    bound = max((sum(1 for w in weights if w % p == 0) for p in _prime_divisors(period)), default=0)
    if grade != int(kv["grade"]) or bound != int(kv["bound"]) or not grade < bound:
        return "grade or bound disagrees with the printed table"
    # The Hilbert function of a free module equals its quasipolynomial for
    # n > max(shifts) - sum(weights); check one full period from there.
    start = max(0, max(shifts) - sum(weights) + 1)
    stop = start + math.lcm(*weights)
    coeffs = series_expansion(weights, shifts, stop)
    for n in range(start, stop + 1):
        if _qp_value(period, rows, n) != coeffs[n]:
            return f"Q({n}) disagrees with the power-series coefficient"
    return None


def check_faces_output(kind: str, data, output: str, code: int) -> str | None:
    if code != 0:
        return f"exit code {code}"
    verts, faces = [], []
    for line in output.splitlines():
        if line.startswith("vertex "):
            verts.append(tuple(Fraction(t) for t in line.split(":")[1].split()))
        else:
            parts = dict(p.split("=") for p in line.split()[1:])
            idx = tuple(int(i) for i in parts["vertices"].split(","))
            faces.append((int(parts["dim"]), idx, parts["span_lattice"] == "true"))
    if kind.startswith("cloud"):
        if not set(verts) <= set(data):
            return "a hull vertex is not an input point"
    else:
        for v in verts:
            if any(sum(a * x for a, x in zip(row, v)) > b for row, b in data):
                return "a vertex violates an input inequality"
    dim = max(d for d, _, _ in faces)
    if sum((-1) ** d for d, _, _ in faces) != 1:
        return "face numbers break the Euler relation"
    tops = [f for f in faces if f[0] == dim]
    if len(tops) != 1 or tops[0][1] != tuple(range(len(verts))):
        return "the polytope itself is not the single top face"
    for d, idx, ok in faces:
        if d == 0 and (len(idx) != 1 or ok != all(c.denominator == 1 for c in verts[idx[0]])):
            return "vertex span test disagrees with integrality"
    if dim == 3 and not tops[0][2]:
        return "a full-dimensional span must hold a lattice point"
    return None
