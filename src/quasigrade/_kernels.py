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

Each box is first cut along its leading prefix axes into sub-boxes of at
most ``_CHUNK_LIMIT`` prefixes, and consecutive sub-boxes are packed into
chunks of at most ``_CHUNK_LIMIT`` prefixes, so a chunk holds whole sub-boxes.
No prefix coordinate is built: a sub-box's slacks are the outer sum of its
corner slack b - a'·lo', one matmul for all sub-boxes of a chunk, and the
terms -a_j·i_j over the offsets i_j along each prefix axis j, shared by
sub-boxes of equal widths.  So a batch of small boxes costs one pass of numpy
calls, and no array holds more than ``_CHUNK_LIMIT`` prefixes per row,
whatever the size of the box.  The arrays are int64 when ``_fits_int64``
proves, for the coordinatewise largest box and right-hand sides of the batch,
that no intermediate can overflow, and Python integers (dtype=object)
otherwise; the same code runs on both, so every count is exact either way.
``count_box`` is the one-box call.
"""

from __future__ import annotations

import itertools
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
    over every row (a, b), of |b| + sum_j |a_j|·c_j.  For any point y of the
    box, every partial sum of a'·y and the slack b - a'·y are at most B in
    absolute value; a sub-box's corner slack, the corner slack less the
    offsets of the leading axes, and every s = b - a'·x' are such slacks.  An
    offset 0 <= i_j <= hi_j - lo_j is at most 2·c_j, so each term a_j·i_j and
    every partial outer sum of them is at most 2B.  Both divisions
    floor(s / a_m) and ceil(s / a_m) (as |a_m| >= 1) and the clipped bounds
    low and high are at most B, so high - low + 1 is at most 2B + 1.  The sum
    over a chunk adds at most _CHUNK_LIMIT counts of at most 2·c_m + 1.  Both
    B and that sum must stay below 2^62, so 2B < 2^63.  Both grow with every
    |lo_j|, |hi_j| and |b|, so a batch passes when its coordinatewise largest
    box does.
    """
    corner = [max(abs(l), abs(h)) for l, h in zip(lo, hi)]
    bound = max(corner)
    for row, rhs in rows:
        bound = max(bound, abs(rhs) + sum(abs(a) * c for a, c in zip(row, corner)))
    return bound < _INT64_SAFE and _CHUNK_LIMIT * (2 * corner[-1] + 1) < _INT64_SAFE


def _sub_boxes(lo: Sequence[int], widths: Sequence[int]) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(corner, widths) of sub-boxes of at most _CHUNK_LIMIT points that tile the box in row-major order.

    The trailing axes that fit stay whole, the axis before them is cut into
    runs, and each axis before that into single values.
    """
    j, tail = len(widths), 1
    while j and tail * widths[j - 1] <= _CHUNK_LIMIT:
        j -= 1
        tail *= widths[j]
    if not j:
        yield tuple(lo), tuple(widths)
        return
    run, width = _CHUNK_LIMIT // tail, widths[j - 1]
    for head in itertools.product(*(range(l, l + w) for l, w in zip(lo[: j - 1], widths[: j - 1]))):
        for start in range(0, width, run):
            yield (*head, lo[j - 1] + start, *lo[j:]), (1,) * (j - 1) + (min(run, width - start), *widths[j:])


def _chunks(los: Sequence[Sequence[int]], his: Sequence[Sequence[int]]) -> Iterator[list[tuple]]:
    """(box, corner, widths, size) of the prefix sub-boxes of the boxes, _CHUNK_LIMIT prefixes per chunk."""
    chunk: list[tuple] = []
    room = _CHUNK_LIMIT
    for k, (lo, hi) in enumerate(zip(los, his)):
        for corner, widths in _sub_boxes(lo[:-1], [h - l + 1 for l, h in zip(lo[:-1], hi[:-1])]):
            size = math.prod(widths)
            if size > room:
                yield chunk
                chunk, room = [], _CHUNK_LIMIT
            chunk.append((k, corner, widths, size))
            room -= size
    if chunk:
        yield chunk


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
    rows, n_up, n_bound = len(order), len(up), len(up) + len(down)
    a = np.array([normals[i] for i in order], dtype=dtype).reshape(rows, m)
    b = np.array([[rhs[i] for i in order] for rhs in bs], dtype=dtype).reshape(len(live), rows).T
    step = np.abs(a[:n_bound, -1:])
    last_lo = np.array([lo[-1] for lo in los], dtype=dtype)
    last_hi = np.array([hi[-1] for hi in his], dtype=dtype)

    # a_j·i_j for the offsets i_j = 0, 1, ... along each prefix axis j, as
    # far as any sub-box reaches; every sub-box slices its own widths.
    reach = [min(_CHUNK_LIMIT, max(h[j] - l[j] + 1 for l, h in zip(los, his))) for j in range(m - 1)]
    terms = [a[:, j : j + 1] * np.arange(w, dtype=dtype) for j, w in enumerate(reach)]
    for chunk in _chunks(los, his):
        ks, corners, widths, sizes = zip(*chunk)
        ks = list(ks)
        corner_slack = b[:, ks] - a[:, :-1] @ np.array(corners, dtype=dtype).reshape(len(ks), m - 1).T
        # A sub-box's slacks b - a'·x' are its corner slack minus a_j·i_j
        # broadcast along each prefix axis j, for a run of sub-boxes of equal
        # widths at once.
        blocks, t = [], 0
        for w, run in itertools.groupby(widths):
            block = corner_slack[:, t : t + len(list(run))]
            t += block.shape[1]
            for term, width in zip(terms, w):
                block = (block[:, :, None] - term[:, None, :width]).reshape(rows, block.shape[1] * width)
            blocks.append(block)
        s = np.concatenate(blocks, axis=1) if len(blocks) > 1 else blocks[0]
        low = np.repeat(last_lo[ks], sizes)
        high = np.repeat(last_hi[ks], sizes)
        q = np.floor_divide(s[:n_bound], step, out=s[:n_bound])
        if n_up:
            high = np.minimum(high, q[:n_up].min(axis=0))
        if n_bound > n_up:  # ceil(s / a_m) = -(s // |a_m|) when a_m < 0
            low = np.maximum(low, -q[n_up:].min(axis=0))
        fibre = np.maximum(high - low + 1, 0)
        if rows > n_bound:
            fibre[(s[n_bound:] < 0).any(axis=0)] = 0
        for k, total in zip(ks, np.add.reduceat(fibre, np.cumsum((0,) + sizes[:-1])).tolist()):
            counts[live[k]] += total
    return counts


def count_box(lo: Sequence[int], hi: Sequence[int], ineqs: IntRows, eqs: IntRows) -> int:
    """Count integer points x with lo <= x <= hi, a·x <= b and c·x = d rowwise.

    This is ``count_boxes`` on one box.
    """
    box = (lo, hi, [rhs for _, rhs in ineqs], [rhs for _, rhs in eqs])
    return count_boxes([row for row, _ in ineqs], [row for row, _ in eqs], [box])[0]
