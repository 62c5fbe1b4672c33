"""Search utilities: uniform grid scan with golden-section refinement, bisection."""

from __future__ import annotations

import math
from typing import Callable

__all__ = ["bisect_root", "golden_section_min", "grid_refine_min", "grid_refine_max"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


def golden_section_min(
    fn: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12
) -> float:
    """Golden-section minimizer of a unimodal function on [lo, hi].

    Returns the abscissa of the bracket midpoint once the bracket is shorter
    than ``tol`` (absolute, in argument units).
    """
    if hi < lo:
        lo, hi = hi, lo
    dist = hi - lo
    if dist <= tol:
        return (lo + hi) / 2.0
    n = int(math.ceil(math.log(tol / dist) / math.log(_INV_PHI)))
    c = lo + _INV_PHI_SQ * dist
    d = lo + _INV_PHI * dist
    yc = fn(c)
    yd = fn(d)
    for _ in range(max(n - 1, 0)):
        if yc < yd:
            hi, d, yd = d, c, yc
            dist *= _INV_PHI
            c = lo + _INV_PHI_SQ * dist
            yc = fn(c)
        else:
            lo, c, yc = c, d, yd
            dist *= _INV_PHI
            d = lo + _INV_PHI * dist
            yd = fn(d)
    return (lo + d) / 2.0 if yc < yd else (c + hi) / 2.0


def grid_refine_min(fn: Callable, lo: float, hi: float, grid_points: int) -> tuple[float, float]:
    """Minimize on [lo, hi]: uniform scan, then one golden-section pass.

    ``fn`` takes a float or a numpy array: the scan evaluates the whole grid
    in one call, the refinement one float at a time.  The golden-section pass
    runs on the bracket around the grid argmin; the final answer is the best
    of {refined point, grid argmin, both interval endpoints}, so an optimum
    sitting exactly on a boundary is returned exactly rather than to within
    the refinement tolerance.
    """
    import numpy as np  # deferred: bisect_root and golden_section_min run without numpy

    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    if hi <= lo:
        return lo, fn(lo)
    xs = np.linspace(lo, hi, grid_points)
    i = int(np.argmin(fn(xs)))
    b_lo = xs[max(i - 1, 0)]
    b_hi = xs[min(i + 1, grid_points - 1)]
    refined = golden_section_min(fn, b_lo, b_hi, tol=max((hi - lo) * 1e-12, 1e-15))
    candidates = [refined, xs[i], lo, hi]
    best = min(candidates, key=fn)
    return best, fn(best)


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
