"""Search utilities: uniform grid scan with array zoom refinement, bisection."""

from __future__ import annotations

import math
from typing import Callable, Sequence

__all__ = ["REFINE_POINTS", "bisect_root", "grid_refine_mins", "grid_refine_min", "grid_refine_max"]

REFINE_POINTS = 129  # points of each zoom pass of grid_refine_mins


def grid_refine_mins(
    fn: Callable[..., Sequence], lo: float, hi: float, grid_points: int
) -> list[float]:
    """Minimize several objectives on [lo, hi]: one shared uniform scan, then zoom passes.

    ``fn`` maps a numpy array of points to one array per objective, each of
    the points' shape.  The scan evaluates a ``grid_points``-point grid in one
    call.  Each zoom pass then makes one call on a ``(k, REFINE_POINTS)``
    array, one row per objective still refining, spanning its bracket (the
    two neighbours of its current argmin); the objective reads its own row
    and shrinks its bracket to the neighbours of the row's argmin, until the
    bracket is no longer than ``max((hi - lo)*1e-12, 1e-15)``.  Each
    objective stops on its own, so its answer does not depend on the others.
    The answer of each objective is the first minimum among {refined point,
    grid argmin, ``lo``, ``hi``}, compared on the values already computed, so
    an optimum sitting exactly on a boundary is returned exactly rather than
    to within the refinement tolerance.
    """
    import numpy as np  # deferred: bisect_root runs without numpy

    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    xs = np.linspace(lo, hi, grid_points)
    scans = fn(xs)
    if hi <= lo:
        return [float(lo)] * len(scans)
    tol = max((hi - lo) * 1e-12, 1e-15)
    last = REFINE_POINTS - 1
    argmins = [int(np.argmin(scan)) for scan in scans]
    refined = [(xs[i], scan[i]) for i, scan in zip(argmins, scans)]
    b_lo = [xs[max(i - 1, 0)] for i in argmins]
    b_hi = [xs[min(i + 1, grid_points - 1)] for i in argmins]
    todo = [j for j in range(len(scans)) if b_hi[j] - b_lo[j] > tol]
    while todo:
        zs = np.array([np.linspace(b_lo[j], b_hi[j], REFINE_POINTS) for j in todo])
        values = fn(zs)
        going = []
        for row, j in enumerate(todo):
            ys = values[j][row]
            m = int(np.argmin(ys))
            refined[j] = zs[row, m], ys[m]
            width = b_hi[j] - b_lo[j]
            b_lo[j], b_hi[j] = zs[row, max(m - 1, 0)], zs[row, min(m + 1, last)]
            # A bracket a few ulps wide can stop shrinking before it reaches tol.
            if tol < b_hi[j] - b_lo[j] < width:
                going.append(j)
        todo = going
    best = []
    for i, scan, point in zip(argmins, scans, refined):
        candidates = [point, (xs[i], scan[i]), (lo, scan[0]), (hi, scan[-1])]
        best.append(float(min(candidates, key=lambda c: c[1])[0]))
    return best


def grid_refine_min(fn: Callable, lo: float, hi: float, grid_points: int) -> tuple[float, float]:
    """Minimize ``fn`` on [lo, hi] by :func:`grid_refine_mins`; returns ``(x, fn(x))``.

    ``fn`` takes a float or a numpy array; the value at the answer comes
    from one more call on the float.
    """
    (x,) = grid_refine_mins(lambda t: (fn(t),), lo, hi, grid_points)
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
