"""Search utilities: uniform grid scans with shared array zoom refinement, bisection."""

from __future__ import annotations

import math
from typing import Callable, Sequence

__all__ = ["REFINE_POINTS", "bisect_root", "grid_refine_mins", "grid_refine_min", "grid_refine_max"]

REFINE_POINTS = 129  # points of each zoom row of grid_refine_mins


def grid_refine_mins(
    fn: Callable[..., Sequence], lo: Sequence[float], hi: Sequence[float], grid_points: int
) -> list[list[float]]:
    """Minimize several objectives of several problems, problem ``k`` on ``[lo[k], hi[k]]``.

    ``fn(k, points)`` gives one array per objective, each of the points'
    shape: ``k`` is a problem index and ``points`` a 1-D array, or ``k`` is an
    index array and row ``r`` of the 2-D ``points`` belongs to problem
    ``k[r]``.  Each problem's ``grid_points``-point scan is one call.  Then
    every bracket still refining (the two neighbours of one objective's
    current argmin), of any problem, gets a ``REFINE_POINTS``-point zoom row;
    the rows go to ``fn`` in calls of at most ``grid_points // REFINE_POINTS``
    rows (at least one), and each bracket shrinks to the neighbours of its
    row's argmin until it is no longer than ``max((hi - lo)*1e-12, 1e-15)``.
    Each bracket stops on its own, so an answer does not depend on the other
    objectives or problems.  The answer of each objective is the first
    minimum among {refined point, grid argmin, ``lo``, ``hi``}, compared on
    the values already computed, so an optimum sitting exactly on a boundary
    is returned exactly rather than to within the refinement tolerance.  A
    problem with ``hi <= lo`` answers ``lo``.  Returns one list of answers per
    problem, one answer per objective.
    """
    import numpy as np  # deferred: bisect_root runs without numpy

    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    rows_per_call = max(grid_points // REFINE_POINTS, 1)
    last = REFINE_POINTS - 1
    # candidates[k][j]: [refined point, scan argmin, lo, hi] of objective j of problem k, as (x, value)
    candidates = []
    todo = []  # brackets still refining: (problem, objective, lower end, upper end)
    tols = []
    for k, (a, b) in enumerate(zip(lo, hi)):
        xs = np.linspace(a, b, grid_points)
        scans = fn(k, xs)
        tols.append(max((b - a) * 1e-12, 1e-15))
        if b <= a:
            candidates.append([[(a, scan[0])] for scan in scans])
            continue
        found = []
        for j, scan in enumerate(scans):
            i = int(np.argmin(scan))
            found.append([(xs[i], scan[i]), (xs[i], scan[i]), (a, scan[0]), (b, scan[-1])])
            b_lo, b_hi = xs[max(i - 1, 0)], xs[min(i + 1, grid_points - 1)]
            if b_hi - b_lo > tols[k]:
                todo.append((k, j, b_lo, b_hi))
        candidates.append(found)
    steps = np.arange(REFINE_POINTS, dtype=float)
    while todo:
        chunk, todo = todo[:rows_per_call], todo[rows_per_call:]
        ks, _, starts, stops = (np.array(column) for column in zip(*chunk))
        # Row r is np.linspace(starts[r], stops[r], REFINE_POINTS), in linspace's own arithmetic.
        zs = steps * ((stops - starts) / last)[:, None] + starts[:, None]
        zs[:, last] = stops
        values = fn(ks, zs)
        argmins = [v.argmin(axis=1).tolist() for v in values]
        for row, (k, j, b_lo, b_hi) in enumerate(chunk):
            m = argmins[j][row]
            candidates[k][j][0] = zs[row, m], values[j][row, m]
            z_lo, z_hi = zs[row, max(m - 1, 0)], zs[row, min(m + 1, last)]
            # A bracket a few ulps wide can stop shrinking before it reaches tol.
            if tols[k] < z_hi - z_lo < b_hi - b_lo:
                todo.append((k, j, z_lo, z_hi))
    return [[float(min(cands, key=lambda c: c[1])[0]) for cands in found] for found in candidates]


def grid_refine_min(fn: Callable, lo: float, hi: float, grid_points: int) -> tuple[float, float]:
    """Minimize ``fn`` on [lo, hi] by :func:`grid_refine_mins` as its one problem; returns ``(x, fn(x))``.

    ``fn`` takes a float or a numpy array; the value at the answer comes
    from one more call on the float.
    """
    [[x]] = grid_refine_mins(lambda k, t: (fn(t),), [lo], [hi], grid_points)
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
