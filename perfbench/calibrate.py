"""A fixed reference loop that measures how fast the machine runs right now.

On a shared host the same instance can take 1.45 times longer for seconds
at a time.  The workload process runs this loop between instances, and
run.py scales each instance's latency by ``REFERENCE_S`` over the loop's
time around it.  Timings are then in reference seconds: wall seconds at the
speed where this loop takes exactly ``REFERENCE_S``.

The loop is made of exact rational sums and small numpy box-membership
tests, the program's two kinds of work, so that it slows with both.
"""

import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.001

# Rounds of each kind in one loop.  The three rational rounds take about as
# long as the one numpy round, so the loop weighs both kinds of work equally;
# the whole loop takes 0.6-1.2 ms, depending on the host's speed.
RATIONAL_ROUNDS = 3
NUMPY_ROUNDS = 1

_POINTS = np.arange(3 * 8192, dtype=np.int64).reshape(-1, 3) % 37
_ROWS = np.array([[1, 2, -1], [0, 1, 3], [-2, 1, 1], [1, -1, 1]], dtype=np.int64)
_RHS = np.array([20, 30, 25, 40], dtype=np.int64)


def reference_loop() -> tuple[Fraction, int]:
    """Rounds of exact rational sums, then rounds of numpy box tests."""
    total = Fraction(0)
    for _ in range(RATIONAL_ROUNDS):
        acc = Fraction(0)
        for i in range(1, 40):
            acc += Fraction(i % 7 + 1, i)
        total += acc
    inside = 0
    for _ in range(NUMPY_ROUNDS):
        inside += int(((_POINTS @ _ROWS.T) <= _RHS).all(axis=1).sum())
    return total, inside


def loop_seconds() -> float:
    """Wall time of one run of the reference loop."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0
