"""Search utilities: a uniform grid scan with zoom refinement, bisection."""

from __future__ import annotations

import math
from typing import Callable

__all__ = ["REFINE_POINTS", "bisect_root", "grid_refine_min", "grid_refine_max"]

REFINE_POINTS = 129  # points of each zoom row of grid_refine_min


def grid_refine_min(fn: Callable, lo: float, hi: float, grid_points: int) -> tuple[float, float]:
    """Minimize ``fn`` on [lo, hi] by a grid scan and zoom rows; returns ``(x, fn(x))``.

    ``fn`` takes a float or a numpy array.  The ``grid_points``-point scan is
    one call.  Then the bracket (the two neighbours of the current argmin)
    gets a ``REFINE_POINTS``-point zoom row, ``np.linspace``'s arithmetic over
    the bracket, one call a row, and shrinks to the neighbours of the row's
    argmin until it is no longer than ``max((hi - lo)*1e-12, 1e-15)``.  The
    answer is the first minimum among {refined point, grid argmin, ``lo``,
    ``hi``}, compared on the values already computed, so a minimum sitting
    exactly on a boundary is returned exactly rather than to within the
    refinement tolerance.  ``hi <= lo`` answers ``lo``.  The value at the
    answer comes from one more call on the float.  The package's optima do
    not call it: it is a brute-force reference for tests and the benchmark.
    """
    import numpy as np  # deferred: bisect_root runs without numpy

    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    xs = np.linspace(lo, hi, grid_points)
    scan = fn(xs)
    candidates = [(lo, scan[0])]  # as (x, value)
    if hi > lo:
        i = int(np.argmin(scan))
        # The refined point (the scan argmin until a zoom row replaces it), the scan argmin, lo, hi.
        candidates = [(xs[i], scan[i]), (xs[i], scan[i]), (lo, scan[0]), (hi, scan[-1])]
        tol = max((hi - lo) * 1e-12, 1e-15)
        b_lo, b_hi = xs[max(i - 1, 0)], xs[min(i + 1, grid_points - 1)]
        steps, last = np.arange(REFINE_POINTS, dtype=float), REFINE_POINTS - 1
        while b_hi - b_lo > tol:
            zs = steps * ((b_hi - b_lo) / last) + b_lo
            zs[last] = b_hi
            values = fn(zs)
            m = int(np.argmin(values))
            candidates[0] = zs[m], values[m]
            z_lo, z_hi = zs[max(m - 1, 0)], zs[min(m + 1, last)]
            # A bracket a few ulps wide can stop shrinking before it reaches tol.
            if not z_hi - z_lo < b_hi - b_lo:
                break
            b_lo, b_hi = z_lo, z_hi
    x = float(min(candidates, key=lambda c: c[1])[0])
    return x, fn(x)


def grid_refine_max(fn: Callable, lo: float, hi: float, grid_points: int) -> tuple[float, float]:
    """Maximize on [lo, hi] via :func:`grid_refine_min` on the negated function."""
    x, neg = grid_refine_min(lambda t: -fn(t), lo, hi, grid_points)
    return x, -neg


def bisect_root(
    fn: Callable[[float], float], lo: float, hi: float, xtol: float = 1e-10
) -> float | None:
    """Root of ``fn`` on the bracket [lo, hi] by bisection, evaluating ``fn`` once per point.

    An endpoint where ``fn`` is exactly zero is returned as is.  None when
    ``fn(lo)`` and ``fn(hi)`` do not differ in sign (a NaN has no sign).
    Otherwise the bracket is halved until it is no longer than ``xtol`` and
    its midpoint, within ``xtol / 2`` of a sign change of ``fn``, is returned.
    """
    if not xtol > 0.0:
        raise ValueError("xtol must be positive")
    f_lo, f_hi = fn(lo), fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if not (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo):
        return None
    n = max(int(math.ceil(math.log2(abs(hi - lo) / xtol))), 0)
    for _ in range(n):
        mid = (lo + hi) / 2.0
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2.0
