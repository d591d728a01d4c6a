"""A fixed computation that gauges how fast the host runs at the moment.

The benchmark shares a few cores of a host with other machines, and the
speed those cores give swings by up to 1.6x within seconds and drifts over
minutes.  Seconds measured in one run are therefore not comparable with
seconds measured in the next.  The child process times this computation before every
operation, and ``op_ref`` divides an operation's time by the median of those
samples, which cancels most of the swing.

The computation is fraction-free (Bareiss) elimination of a fixed integer
matrix: exact multi-word integer arithmetic over Python lists, the same kind
of work as quivrad's linear algebra, which clears denominators and eliminates
over the integers.  It lives here and does not import quivrad, so a change to
the program cannot change it.
"""
from __future__ import annotations

import gc
import random
import time

SIZE = 24
REPEATS = 30  # 40-55 ms per sample on a 2-core Xeon VM


def _build() -> list:
    rng = random.Random(20231)
    return [[rng.randint(-9, 9) for _ in range(SIZE)] for _ in range(SIZE)]


MATRIX = _build()


def determinant(matrix: list) -> int:
    """Determinant by Bareiss elimination; every division is exact."""
    m = [row[:] for row in matrix]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, row_k = m[k][k], m[k]
        for i in range(k + 1, n):
            row_i, factor = m[i], m[i][k]
            m[i] = [(pivot * row_i[j] - factor * row_k[j]) // prev for j in range(n)]
        prev = pivot
    return sign * m[-1][-1]


def sample() -> float:
    """Seconds for REPEATS determinants, with the garbage collector off so the
    program's heap does not add to the time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(REPEATS):
            determinant(MATRIX)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
