"""Urban-scale extension: triangular flow diagram with state-dependent capacity.

The urban network is summarized by a triangular relation between vehicle
accumulation and outflow: linear free-flow up to a critical accumulation,
then a linear congested branch falling to zero at jam accumulation.  Flat
tolls can push the system onto the congested branch, which turns the flat
bottleneck algebra into log-form expressions; the trapezoidal (dynamic)
benchmarks keep the system pinned at the critical accumulation and therefore
delegate to the bottleneck formulas with capacity set to the maximum
throughput.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import bottleneck
from .core import (
    BottleneckParams,
    CostBreakdown,
    DomainError,
    TriangularMfd,
    anywhere,
    regime_thresholds,
    select,
)
from .search import bisect_root

__all__ = [
    "TriangularMfd",
    "MfdDynamicBenchmarks",
    "static_lower_toll",
    "static_revenue",
    "static_system_cost",
    "static_optima",
    "static_revenue_optimal",
    "static_sc_optimal",
    "dynamic_benchmarks",
    "guarantees",
]

DEFAULT_GRID_POINTS = 65  # nodes of the flat-toll searches' slope scan
_SERIES_CUTOFF = 1e-3  # below it, _excess_share sums its Taylor series


@dataclass(frozen=True)
class MfdDynamicBenchmarks:
    """Dynamic benchmarks for an urban scenario (all at critical accumulation).

    ``so.system_cost`` is the minimum system cost over all toll schedules.
    """

    ro: bottleneck.DynamicTollDesign
    so: bottleneck.DynamicTollDesign


def static_lower_toll(params: BottleneckParams, mfd: TriangularMfd) -> float:
    """Smallest flat toll at which some user is indifferent car/transit.

    Below this toll the flat segment of the mixed-mode wait profile would
    need negative length; operationally it is the root of the
    flat-segment-length expression:
    ``max(0, gap - (n_j/mu_f) * (exp(demand*eL/((e+L)*n_j)) - 1))``.
    """
    n_j = mfd.jam_accumulation
    spread = params.total_demand * params.schedule_factor / n_j
    if spread >= 700.0:
        # exp would overflow; the shoulder term dwarfs any representable gap.
        return 0.0
    return max(0.0, params.cost_gap - (n_j / mfd.max_throughput) * math.expm1(spread))


def _check_toll_domain(
    params: BottleneckParams, mfd: TriangularMfd, toll: float | np.ndarray
) -> None:
    lo = static_lower_toll(params, mfd)
    hi = params.cost_gap
    slack = 1e-9 * max(1.0, abs(hi))
    if anywhere((toll < lo - slack) | (toll > hi + slack)):
        raise DomainError(
            f"toll {toll!r} outside the mixed-mode band [{lo!r}, {hi!r}]; "
            "the all-car congested regime is not modeled"
        )


def _excess_share(x: float | np.ndarray, log1p_x: float | np.ndarray) -> float | np.ndarray:
    """``(x - log1p(x))/x`` for ``x >= 0``, to rounding, and 0 at ``x = 0``.

    The difference cancels for small ``x``, so below ``_SERIES_CUTOFF`` the
    share is the Taylor series ``x/2 - x^2/3 + x^3/4 - x^4/5 + x^5/6``, whose
    first omitted term is under 3e-16 of it there; above the cutoff it is
    read from the caller's ``log1p(x)``.  A float computes the one it takes;
    an array takes the divided difference everywhere, then the series where
    it is below the cutoff.
    """
    if np.ndim(x) == 0:
        return _series(x) if x < _SERIES_CUTOFF else (x - log1p_x) / x
    share = (x - log1p_x) / np.maximum(x, _SERIES_CUTOFF)
    small = x < _SERIES_CUTOFF
    share[small] = _series(x[small])
    return share


def _series(x: float | np.ndarray) -> float | np.ndarray:
    return x * (1 / 2 - x * (1 / 3 - x * (1 / 4 - x * (1 / 5 - x / 6))))


def _flow(params: BottleneckParams, mfd: TriangularMfd, toll: float | np.ndarray) -> tuple:
    """The intermediates of the flat-toll formulas at ``toll`` (a float or an array).

    ``(a, W, x, log1p(x), h(x), peak outflow, flat length, car users)``, with
    ``a = n_j/mu_f``, the peak wait ``W = g - toll``, ``x = W/a`` and ``h``
    the :func:`_excess_share`; :func:`_flat_toll` and :func:`_slopes` read them.
    """
    n_j = mfd.jam_accumulation
    a = n_j / mfd.max_throughput
    wait = np.maximum(params.cost_gap - toll, 0.0)
    x = wait * mfd.max_throughput / n_j
    log_term = np.log1p(x)
    shoulder = n_j / params.schedule_factor * log_term
    peak_flow = n_j / (a + wait)
    flat_len = (params.total_demand - shoulder) / params.arrival_rate
    car_users = shoulder + peak_flow * flat_len
    return a, wait, x, log_term, _excess_share(x, log_term), peak_flow, flat_len, car_users


def _flat_toll(
    params: BottleneckParams, mfd: TriangularMfd, toll: float | np.ndarray
) -> CostBreakdown:
    """Cost pieces and revenue of a flat toll, unchecked; ``toll`` is a float or an array.

    The one implementation of the urban flat-toll formulas: the public
    functions and the searches evaluate it, a search on all its candidates at once.
    The shoulder queue and schedule are written over ``x = W/a`` through
    :func:`_excess_share`, so both stay exact as the wait goes to zero.
    """
    n_j, lam = mfd.jam_accumulation, params.arrival_rate
    _, wait, _, log_term, share, peak_flow, flat_len, car_users = _flow(params, mfd, toll)
    transit = params.transit_cost * (params.total_demand - car_users)
    car = params.car_freeflow_cost * car_users
    queue_flat = flat_len * peak_flow * wait
    shoulders = n_j / params.early_penalty + n_j / params.late_penalty
    queue_shoulders = shoulders * wait * share
    schedule = shoulders * (wait - (n_j / lam) * log_term) * share
    return CostBreakdown(transit, car, queue_flat + queue_shoulders, schedule, toll * car_users)


def _share_slope(x: float | np.ndarray, share: float | np.ndarray) -> float | np.ndarray:
    """``h'(x) = (x/(1 + x) - h)/x`` of the excess share ``h``, and 1/2 at ``x = 0``."""
    if np.ndim(x) == 0:
        return (x / (1 + x) - share) / x if x > 0 else 0.5
    slope = (x / (1 + x) - share) / np.where(x > 0, x, 1.0)
    slope[x == 0] = 0.5
    return slope


def _slopes(params: BottleneckParams, mfd: TriangularMfd, toll: float | np.ndarray) -> tuple:
    """``(dR/dtoll, dSC/dtoll)``, the slopes of the revenue and the system cost, unchecked.

    ``toll`` is a float or an array.  With the car users ``C`` of
    :func:`_flow`, ``K = n_j/sf`` and the wait ``W = g - toll``: ``dR/dtoll =
    C - toll*C'`` and ``dSC/dtoll = g*C' - d(flat queue)/dW - d(shoulders)/dW``,
    where ``'`` is ``d/dW`` (docs/formulas.md derives each term).
    """
    n_j, lam = mfd.jam_accumulation, params.arrival_rate
    a, wait, x, log_term, share, peak_flow, flat_len, car_users = _flow(params, mfd, toll)
    k = n_j / params.schedule_factor
    span = a + wait
    d_cars = k / span * (1 - peak_flow / lam) - peak_flow * flat_len / span
    d_queue_flat = peak_flow / span * (flat_len * a - k * wait / lam)
    d_shoulders = k * (
        _share_slope(x, share) / a * (2 * wait - n_j / lam * log_term)
        + share * (2 - n_j / (lam * span))
    )
    return car_users - toll * d_cars, params.cost_gap * d_cars - d_queue_flat - d_shoulders


def static_revenue(
    params: BottleneckParams, mfd: TriangularMfd, toll: float | np.ndarray
) -> float | np.ndarray:
    """Revenue of a flat toll on the urban network (closed log form).

    ``toll * [shoulder_users + peak_outflow * flat_length]`` where the
    shoulder count is ``n_j*(e+L)/(eL) * log(1 + W*mu_f/n_j)`` for peak wait
    ``W = gap - toll``.  Valid on ``[static_lower_toll, gap]``; outside that
    band the all-car congested equilibrium is not modeled and a
    :class:`~tollgap.core.DomainError` is raised.  ``toll`` may be a float or
    a numpy array of tolls, and the revenue comes back in the same shape.
    """
    _check_toll_domain(params, mfd, toll)
    return _flat_toll(params, mfd, toll).revenue


def static_system_cost(
    params: BottleneckParams, mfd: TriangularMfd, toll: float | np.ndarray
) -> CostBreakdown:
    """System cost of a flat toll on the urban network, from its seven pieces.

    Transit and free-flow car costs scale with the mode split; queuing splits
    into the flat-segment block plus closed antiderivatives over the rising
    and falling shoulders; schedule delay uses the closed shoulder forms.
    Every congestion piece vanishes at ``toll == gap``.  Domain and array
    tolls as in :func:`static_revenue`; an array toll gives array pieces.
    """
    _check_toll_domain(params, mfd, toll)
    return _flat_toll(params, mfd, toll)


def static_optima(
    params: BottleneckParams, mfd: TriangularMfd
) -> tuple[tuple[float, CostBreakdown], tuple[float, CostBreakdown]]:
    """Revenue-maximizing and cost-minimizing flat tolls with their cost pieces.

    Each optimum is the first best of its candidates: the band's ends ``lo =
    static_lower_toll`` and ``g``, then each root of its slope (:func:`_slopes`)
    where the revenue stops rising or the cost stops falling.  The roots are
    bracketed by the sign changes of the slope on ``DEFAULT_GRID_POINTS``
    nodes of the band and refined by :func:`~tollgap.search.bisect_root` to
    ``max((g - lo)*1e-12, 1e-15)``; an optimum is missed only where a slope
    changes sign twice between two nodes.  Every candidate's pieces come from
    one ``_flat_toll`` call.  An empty band (``lo = g``) gives the toll ``g``.
    At a negative gap every user rides transit, at the toll 0.
    """
    if params.cost_gap < 0:
        all_transit = CostBreakdown(params.transit_cost * params.total_demand, 0.0, 0.0, 0.0, 0.0)
        return (0.0, all_transit), (0.0, all_transit)
    lo, hi = static_lower_toll(params, mfd), params.cost_gap
    candidates = [[lo, hi], [lo, hi]]
    if lo < hi:
        nodes = np.linspace(lo, hi, DEFAULT_GRID_POINTS)
        xtol = max((hi - lo) * 1e-12, 1e-15)
        # The goals' objectives R and -SC rise, then fall, over a root.
        for goal, (found, slope) in enumerate(zip(candidates, _slopes(params, mfd, nodes))):
            rising = slope > 0 if goal == 0 else slope < 0
            for i in np.flatnonzero(rising[:-1] & ~rising[1:]):
                root = bisect_root(lambda t: _slopes(params, mfd, t)[goal], nodes[i], nodes[i + 1], xtol)
                if root is not None:
                    found.append(float(root))
    tolls, n_ro = candidates[0] + candidates[1], len(candidates[0])
    cost = _flat_toll(params, mfd, np.array(tolls))
    best = int(np.argmax(cost.revenue[:n_ro])), n_ro + int(np.argmin(cost.total[n_ro:]))
    pieces = [getattr(cost, f.name) for f in dataclasses.fields(CostBreakdown)]
    return tuple((tolls[i], CostBreakdown(*(piece[i] for piece in pieces))) for i in best)


def static_revenue_optimal(
    params: BottleneckParams, mfd: TriangularMfd
) -> tuple[float, CostBreakdown]:
    """Revenue-maximizing flat toll with its cost pieces, from :func:`static_optima`."""
    return static_optima(params, mfd)[0]


def static_sc_optimal(params: BottleneckParams, mfd: TriangularMfd) -> tuple[float, CostBreakdown]:
    """System-cost-minimizing flat toll with its cost pieces, from :func:`static_optima`."""
    return static_optima(params, mfd)[1]


def dynamic_benchmarks(params: BottleneckParams, mfd: TriangularMfd) -> MfdDynamicBenchmarks:
    """Dynamic revenue-optimal / system-cost-optimal benchmarks for the network.

    The optimal trapezoid schedules hold the network at the critical
    accumulation, where it behaves exactly like a fixed bottleneck of
    capacity ``max_throughput``; revenue and cost therefore come from the
    bottleneck module with the capacity swapped in.
    """
    delegated = dataclasses.replace(params, capacity=mfd.max_throughput)
    return MfdDynamicBenchmarks(
        bottleneck.dynamic_revenue_optimal(delegated), bottleneck.dynamic_so_design(delegated)
    )


def guarantees(params: BottleneckParams, mfd: TriangularMfd) -> bottleneck.BoundReport:
    """The guarantees the urban model has at one parameter set, both stated at the toll ``g``.

    There the wait is zero and the network runs as the bottleneck at ``mu_f``,
    so :func:`bottleneck.performance_bounds` at ``mu_f`` gives them: the
    low-band revenue floor, and the factor 2 while ``g <= W_max``.  The other
    bounds are None, as the urban model has no revenue floor outside the low
    band, ``g <= low`` with ``low`` from :func:`~tollgap.core.regime_thresholds`
    at ``mu_f``.  The floor carries over to the revenue-optimal toll, whose
    revenue is at least that at ``g``; the cost bound does not.
    """
    at_mu_f = dataclasses.replace(params, capacity=mfd.max_throughput)
    report = bottleneck.performance_bounds(at_mu_f)
    low, _ = regime_thresholds(at_mu_f)
    floor = select(at_mu_f.cost_gap <= low, report.revenue_ratio_lower_bound, None)
    return bottleneck.BoundReport(floor, report.sc_ratio_upper_bound, None)
