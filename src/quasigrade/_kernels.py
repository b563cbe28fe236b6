"""Lattice-point counting over an integer box by closed-form slices.

``count_box`` walks the box over its first m-1 axes (the prefixes) and counts
the valid last coordinates of each prefix x' in closed form.  With
s = b - a'·x' for each inequality row a·x <= b:

  a_m > 0   bounds x_m from above by floor(s / a_m)
  a_m < 0   bounds x_m from below by ceil(s / a_m)
  a_m = 0   is a test on the prefix alone, s >= 0

An equality row c·x = d with c_m != 0 pins x_m = s / c_m when c_m divides s;
with c_m = 0 it is the prefix test s = 0.  A prefix contributes
max(0, high - low + 1) points when it passes every test.

The prefixes are taken in flat chunks of at most ``_CHUNK_LIMIT``, so memory
is bounded whatever the dimension.  The arrays are int64 when ``_fits_int64``
proves that no intermediate can overflow and Python integers (dtype=object)
otherwise; the same code runs on both, so the count is exact either way.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_INT64_SAFE = 2**62
_CHUNK_LIMIT = 1 << 14  # prefixes per chunk

IntRows = Sequence[tuple[Sequence[int], int]]


def active_backend() -> str:
    """Name of the counting implementation (there is one)."""
    return "numpy"


def _fits_int64(lo: Sequence[int], hi: Sequence[int], ineqs: IntRows, eqs: IntRows) -> bool:
    """Whether every intermediate of the int64 slice count stays below 2^63.

    Let c_j = max(|lo_j|, |hi_j|) and let B be the largest of the c_j and,
    over every row (a, b), of |b| + sum_j |a_j|·c_j.  Every partial sum of
    a'·x', every s = b - a'·x' and its negation, both divisions
    floor(s / a_m) and ceil(s / a_m) (as |a_m| >= 1), a pinned value
    s // c_m with its remainder, and the clipped bounds low and high are then
    at most B in absolute value, so high - low + 1 is at most 2B + 1.  The
    sum over a chunk adds at most _CHUNK_LIMIT counts of at most 2·c_m + 1.
    Both B and that sum must stay below 2^62.
    """
    corner = [max(abs(l), abs(h)) for l, h in zip(lo, hi)]
    bound = max(corner)
    for row, rhs in (*ineqs, *eqs):
        bound = max(bound, abs(rhs) + sum(abs(a) * c for a, c in zip(row, corner)))
    return bound < _INT64_SAFE and _CHUNK_LIMIT * (2 * corner[-1] + 1) < _INT64_SAFE


def _slack(rhs: np.ndarray, rows: np.ndarray, prefix: list[np.ndarray], size: int) -> np.ndarray:
    """rhs - rows'·x' for every prefix x' of a chunk: one line per row, one column per prefix."""
    s = np.repeat(rhs[:, None], size, axis=1)
    for j, x in enumerate(prefix):
        s -= np.multiply.outer(rows[:, j], x)
    return s


def count_box(lo: Sequence[int], hi: Sequence[int], ineqs: IntRows, eqs: IntRows) -> int:
    """Count integer points x with lo <= x <= hi, a·x <= b and c·x = d rowwise."""
    m = len(lo)
    if any(l > h for l, h in zip(lo, hi)):
        return 0
    dtype = np.int64 if _fits_int64(lo, hi, ineqs, eqs) else object
    # Inequality rows ordered upper bounds, lower bounds, prefix tests, so
    # that each group is a slice of the slack lines.
    groups = [[r for r in ineqs if r[0][-1] > 0], [r for r in ineqs if r[0][-1] < 0],
              [r for r in ineqs if r[0][-1] == 0]]
    n_up, n_bound = len(groups[0]), len(groups[0]) + len(groups[1])
    rows = [r for group in groups for r in group]
    a = np.array([row for row, _ in rows], dtype=dtype).reshape(len(rows), m)
    b = np.array([rhs for _, rhs in rows], dtype=dtype)
    step = np.abs(a[:n_bound, -1:])
    pinned = sorted(eqs, key=lambda r: r[0][-1] == 0)
    n_pin = sum(1 for row, _ in pinned if row[-1] != 0)
    c = np.array([row for row, _ in pinned], dtype=dtype).reshape(len(pinned), m)
    d = np.array([rhs for _, rhs in pinned], dtype=dtype)

    widths = [h - l + 1 for l, h in zip(lo[:-1], hi[:-1])]
    prefixes = math.prod(widths)
    total = 0
    for start in range(0, prefixes, _CHUNK_LIMIT):
        index = np.arange(start, min(start + _CHUNK_LIMIT, prefixes))
        coords = np.unravel_index(index, widths) if widths else ()
        prefix = [x.astype(dtype) + l for x, l in zip(coords, lo)]
        low = np.full(index.size, lo[-1], dtype=dtype)
        high = np.full(index.size, hi[-1], dtype=dtype)
        ok = np.ones(index.size, dtype=bool)
        if rows:
            s = _slack(b, a, prefix, index.size)
            q = s[:n_bound] // step
            if n_up:
                high = np.minimum(high, q[:n_up].min(axis=0))
            if n_bound > n_up:  # ceil(s / a_m) = -(s // |a_m|) when a_m < 0
                low = np.maximum(low, -q[n_up:].min(axis=0))
            if len(rows) > n_bound:
                ok &= (s[n_bound:] >= 0).all(axis=0)
        if pinned:
            t = _slack(d, c, prefix, index.size)
            if n_pin:
                ok &= (t[:n_pin] % c[:n_pin, -1:] == 0).all(axis=0)
                x = t[:n_pin] // c[:n_pin, -1:]
                low = np.maximum(low, x.max(axis=0))
                high = np.minimum(high, x.min(axis=0))
            if len(pinned) > n_pin:
                ok &= (t[n_pin:] == 0).all(axis=0)
        total += int(np.maximum(high - low + 1, 0)[ok].sum())
    return total
