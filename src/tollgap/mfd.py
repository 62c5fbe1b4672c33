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
from typing import NamedTuple, Sequence

import numpy as np

from . import bottleneck
from .core import (
    BottleneckParams,
    CostBreakdown,
    DomainError,
    ParamsBlock,
    TriangularMfd,
    anywhere,
    regime_thresholds,
    select,
)
from .search import grid_refine_mins

__all__ = [
    "TriangularMfd",
    "MfdDynamicBenchmarks",
    "static_lower_toll",
    "static_revenue",
    "static_system_cost",
    "static_optima",
    "static_optima_many",
    "static_revenue_optimal",
    "static_sc_optimal",
    "dynamic_benchmarks",
    "guarantees",
]

DEFAULT_GRID_POINTS = 4096  # toll grid of the flat-toll searches
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


def _flat_toll(
    params: BottleneckParams, mfd: TriangularMfd, toll: float | np.ndarray
) -> CostBreakdown:
    """Cost pieces and revenue of a flat toll, unchecked; ``toll`` is a float or an array.

    The one implementation of the urban flat-toll formulas: the public
    functions and the searches evaluate it, a search on a whole grid at once.
    The shoulder queue and schedule are written over ``x = W/a`` through
    :func:`_excess_share`, so both stay exact as the wait goes to zero.
    """
    n_j = mfd.jam_accumulation
    a = n_j / mfd.max_throughput
    lam = params.arrival_rate
    e, late = params.early_penalty, params.late_penalty
    wait = np.maximum(params.cost_gap - toll, 0.0)
    x = wait * mfd.max_throughput / n_j
    log_term = np.log1p(x)
    shoulder = n_j / params.schedule_factor * log_term
    peak_flow = n_j / (a + wait)
    flat_len = (params.total_demand - shoulder) / lam
    car_users = shoulder + peak_flow * flat_len

    transit = params.transit_cost * (params.total_demand - car_users)
    car = params.car_freeflow_cost * car_users
    queue_flat = flat_len * peak_flow * wait
    share = _excess_share(x, log_term)
    shoulders = n_j / e + n_j / late
    queue_shoulders = shoulders * wait * share
    schedule = shoulders * (wait - (n_j / lam) * log_term) * share
    return CostBreakdown(transit, car, queue_flat + queue_shoulders, schedule, toll * car_users)


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


class _Networks(NamedTuple):
    """The two flow-diagram fields :func:`_flat_toll` reads, as arrays of one element per set."""

    max_throughput: np.ndarray
    jam_accumulation: np.ndarray


def _search(
    sets: Sequence[tuple[BottleneckParams, TriangularMfd]], goals: tuple[str, ...]
) -> list[list[tuple[float, CostBreakdown]]]:
    """The optimal flat toll of each goal at each set ``(params, mfd)``, with its pieces.

    A goal is "revenue" (most) or "cost" (least).  The sets at a nonnegative
    gap are searched by one :func:`~tollgap.search.grid_refine_mins` call:
    each set's band ``[static_lower_toll, gap]`` gets its own
    ``DEFAULT_GRID_POINTS``-point scan on the set's float parameters, the zoom
    rows of every set and goal share ``_flat_toll`` calls on a
    :class:`~tollgap.core.ParamsBlock` of the sets (a single set too), and
    each bracket refines its own goal of its own set, so an optimum does not
    depend on the other sets or goals.  The revenue curve is Lipschitz on the band, so the
    grid resolution bounds the optimality gap; the refinement makes boundary
    optima exact.  An empty band (``lo = gap``) gives the toll ``gap``.  The
    pieces of all these optima come from one more ``_flat_toll`` call.  At a
    negative gap every user rides transit, at the toll 0.
    """
    priced = [(params, mfd) for params, mfd in sets if params.cost_gap >= 0]
    block = ParamsBlock.stack([params for params, _ in priced])
    nets = _Networks(*(np.array([getattr(net, f) for _, net in priced]) for f in _Networks._fields))

    def flat_toll(k, toll: np.ndarray) -> CostBreakdown:
        """Set ``k``'s pieces, or for an index array ``k`` set ``k[r]``'s in row ``r`` of ``toll``."""
        if np.ndim(k) == 0:
            return _flat_toll(*priced[k], toll)
        rows = k[:, None]
        return _flat_toll(block[rows], _Networks(*(field[rows] for field in nets)), toll)

    def values(k, toll: np.ndarray) -> list[np.ndarray]:
        cost = flat_toll(k, toll)
        return [-cost.revenue if goal == "revenue" else cost.total for goal in goals]

    lo = [static_lower_toll(params, mfd) for params, mfd in priced]
    hi = [params.cost_gap for params, _ in priced]
    tolls = grid_refine_mins(values, lo, hi, DEFAULT_GRID_POINTS)
    at_optima = flat_toll(np.arange(len(priced)), np.array(tolls).reshape(-1, len(goals)))
    pieces = [getattr(at_optima, f.name) for f in dataclasses.fields(CostBreakdown)]
    searched = iter(
        [(toll, CostBreakdown(*(piece[r, g] for piece in pieces))) for g, toll in enumerate(row)]
        for r, row in enumerate(tolls)
    )
    optima = []
    for params, _ in sets:
        if params.cost_gap >= 0:
            optima.append(next(searched))
        else:
            all_transit = CostBreakdown(params.transit_cost * params.total_demand, 0.0, 0.0, 0.0, 0.0)
            optima.append([(0.0, all_transit)] * len(goals))
    return optima


def static_optima_many(
    sets: Sequence[tuple[BottleneckParams, TriangularMfd]],
) -> list[tuple[tuple[float, CostBreakdown], tuple[float, CostBreakdown]]]:
    """:func:`static_optima` of each set ``(params, mfd)``, all from one search."""
    return [tuple(optima) for optima in _search(sets, ("revenue", "cost"))]


def static_optima(
    params: BottleneckParams, mfd: TriangularMfd
) -> tuple[tuple[float, CostBreakdown], tuple[float, CostBreakdown]]:
    """Revenue-maximizing and cost-minimizing flat tolls with their cost pieces, from one search."""
    [optima] = static_optima_many([(params, mfd)])
    return optima


def static_revenue_optimal(
    params: BottleneckParams, mfd: TriangularMfd
) -> tuple[float, CostBreakdown]:
    """Revenue-maximizing flat toll with its cost pieces, from a search of the revenue alone."""
    [[ro]] = _search([(params, mfd)], ("revenue",))
    return ro


def static_sc_optimal(params: BottleneckParams, mfd: TriangularMfd) -> tuple[float, CostBreakdown]:
    """System-cost-minimizing flat toll with its cost pieces, from a search of the cost alone."""
    [[so]] = _search([(params, mfd)], ("cost",))
    return so


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
