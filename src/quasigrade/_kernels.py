"""Lattice-point counting over integer boxes by closed-form slices.

``count_boxes`` counts a batch of boxes that share their row normals, such as
the dilates n·P of one polytope.  Each box is walked over its first m-1 axes
(the prefixes), and the valid last coordinates of each prefix x' are counted
in closed form.  With s = b - a'·x' for each row a·x <= b:

  a_m > 0   bounds x_m from above by floor(s / a_m)
  a_m < 0   bounds x_m from below by ceil(s / a_m)
  a_m = 0   is a test on the prefix alone, s >= 0

A prefix contributes max(0, high - low + 1) points when it passes every test.
An equality c·x = d is counted as the two rows c·x <= d and -c·x <= -d.  This
is exact: when c_m != 0 their bounds floor(s / c_m) and ceil(s / c_m) meet at
the one valid x_m when c_m divides s and cross otherwise, giving 1 or 0; when
c_m = 0 their prefix tests s >= 0 and -s >= 0 together say s = 0.

The prefixes of consecutive boxes are packed into flat chunks of at most
``_CHUNK_LIMIT``; a box larger than a chunk is split across chunks.  So a
batch of small boxes costs one pass of numpy calls, and memory is bounded
whatever the dimension.  The arrays are int64 when ``_fits_int64`` proves,
for the coordinatewise largest box and right-hand sides of the batch, that no
intermediate can overflow, and Python integers (dtype=object) otherwise; the
same code runs on both, so every count is exact either way.  ``count_box`` is
the one-box call.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

_INT64_SAFE = 2**62
_CHUNK_LIMIT = 1 << 14  # prefixes per chunk

IntRows = Sequence[tuple[Sequence[int], int]]
# (lo, hi, inequality right-hand sides, equality right-hand sides)
Box = tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[int]]


def active_backend() -> str:
    """Name of the counting implementation (there is one)."""
    return "numpy"


def _fits_int64(lo: Sequence[int], hi: Sequence[int], rows: IntRows) -> bool:
    """Whether every intermediate of the int64 slice count stays below 2^63.

    Let c_j = max(|lo_j|, |hi_j|) and let B be the largest of the c_j and,
    over every row (a, b), of |b| + sum_j |a_j|·c_j.  Every partial sum of
    a'·x', every s = b - a'·x' and its negation, both divisions
    floor(s / a_m) and ceil(s / a_m) (as |a_m| >= 1), and the clipped bounds
    low and high are then at most B in absolute value, so high - low + 1 is
    at most 2B + 1.  The sum over a chunk adds at most _CHUNK_LIMIT counts of
    at most 2·c_m + 1.  Both B and that sum must stay below 2^62.  Both grow
    with every |lo_j|, |hi_j| and |b|, so a batch passes when its
    coordinatewise largest box does.
    """
    corner = [max(abs(l), abs(h)) for l, h in zip(lo, hi)]
    bound = max(corner)
    for row, rhs in rows:
        bound = max(bound, abs(rhs) + sum(abs(a) * c for a, c in zip(row, corner)))
    return bound < _INT64_SAFE and _CHUNK_LIMIT * (2 * corner[-1] + 1) < _INT64_SAFE


def _chunks(sizes: Sequence[int]) -> Iterator[list[tuple[int, int, int]]]:
    """Pieces (box, first prefix, end prefix) of consecutive boxes, _CHUNK_LIMIT prefixes per chunk."""
    pieces: list[tuple[int, int, int]] = []
    room = _CHUNK_LIMIT
    for k, size in enumerate(sizes):
        start = 0
        while start < size:
            end = min(size, start + room)
            pieces.append((k, start, end))
            room -= end - start
            start = end
            if not room:
                yield pieces
                pieces, room = [], _CHUNK_LIMIT
    if pieces:
        yield pieces


def count_boxes(
    ineq_normals: Sequence[Sequence[int]], eq_normals: Sequence[Sequence[int]], boxes: Sequence[Box]
) -> list[int]:
    """For each box (lo, hi, b, d), the integer points x with lo <= x <= hi, a·x <= b and c·x = d.

    Row i of the inequalities is ineq_normals[i]·x <= b[i], and row i of the
    equalities eq_normals[i]·x = d[i]; the normals are shared by every box.
    """
    counts = [0] * len(boxes)
    live = [k for k, (lo, hi, _, _) in enumerate(boxes) if all(l <= h for l, h in zip(lo, hi))]
    if not live:
        return counts
    # Each equality c·x = d becomes the rows c·x <= d and -c·x <= -d.
    normals = [*ineq_normals, *eq_normals, *([-v for v in row] for row in eq_normals)]
    los, his, bs = zip(*((lo, hi, [*b, *d, *(-v for v in d)]) for lo, hi, b, d in (boxes[k] for k in live)))
    m = len(los[0])
    # The guard sees the coordinatewise largest |lo|, |hi| and right-hand side.
    extent = [max(map(abs, column)) for column in zip(*los, *his)]
    rhs_max = [max(map(abs, column)) for column in zip(*bs)]
    dtype = np.int64 if _fits_int64(extent, extent, list(zip(normals, rhs_max))) else object
    # Rows ordered upper bounds, lower bounds, prefix tests, so that each
    # group is a slice of the slack lines; the right-hand sides are one
    # column per box.
    up = [i for i, row in enumerate(normals) if row[-1] > 0]
    down = [i for i, row in enumerate(normals) if row[-1] < 0]
    order = up + down + [i for i, row in enumerate(normals) if row[-1] == 0]
    n_up, n_bound = len(up), len(up) + len(down)
    a = np.array([normals[i] for i in order], dtype=dtype).reshape(len(order), m)
    b = np.array([[rhs[i] for i in order] for rhs in bs], dtype=dtype).reshape(len(live), len(order)).T
    step = np.abs(a[:n_bound, -1:])

    widths = [[h - l + 1 for l, h in zip(lo[:-1], hi[:-1])] for lo, hi in zip(los, his)]
    lows = np.array(los, dtype=dtype).reshape(len(live), m).T
    last_hi = np.array([hi[-1] for hi in his], dtype=dtype)
    for pieces in _chunks([math.prod(w) for w in widths]):
        ks = [k for k, _, _ in pieces]
        lengths = [end - start for _, start, end in pieces]
        # Each prefix starts at its box's lower corner and is moved to its
        # place in the box in place, one piece at a time.
        prefix = np.repeat(lows[:-1, ks], lengths, axis=1)
        at = 0
        for k, start, end in pieces:
            if m > 1:
                prefix[:, at : at + end - start] += np.unravel_index(np.arange(start, end), widths[k])
            at += end - start
        low = np.repeat(lows[-1, ks], lengths)
        high = np.repeat(last_hi[ks], lengths)
        s = a[:, :-1] @ prefix
        at = 0
        for k, start, end in pieces:  # s = b - a'·x', one line per row
            piece = s[:, at : at + end - start]
            np.subtract(b[:, k : k + 1], piece, out=piece)
            at += end - start
        q = np.floor_divide(s[:n_bound], step, out=s[:n_bound])
        if n_up:
            high = np.minimum(high, q[:n_up].min(axis=0))
        if n_bound > n_up:  # ceil(s / a_m) = -(s // |a_m|) when a_m < 0
            low = np.maximum(low, -q[n_up:].min(axis=0))
        fibre = np.maximum(high - low + 1, 0)
        if len(order) > n_bound:
            fibre[(s[n_bound:] < 0).any(axis=0)] = 0
        starts = np.cumsum([0] + lengths[:-1])
        for k, total in zip(ks, np.add.reduceat(fibre, starts).tolist()):
            counts[live[k]] += total
    return counts


def count_box(lo: Sequence[int], hi: Sequence[int], ineqs: IntRows, eqs: IntRows) -> int:
    """Count integer points x with lo <= x <= hi, a·x <= b and c·x = d rowwise.

    This is ``count_boxes`` on one box.
    """
    box = (lo, hi, [rhs for _, rhs in ineqs], [rhs for _, rhs in eqs])
    return count_boxes([row for row, _ in ineqs], [row for row, _ in eqs], [box])[0]
