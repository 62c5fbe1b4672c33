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

import math
from dataclasses import dataclass

import numpy as np

from . import bottleneck
from .core import BottleneckParams, CostBreakdown, DomainError, TriangularMfd
from .search import grid_refine_mins

__all__ = [
    "TriangularMfd",
    "MfdDynamicBenchmarks",
    "throughput",
    "throughput_from_wait",
    "static_lower_toll",
    "static_revenue",
    "static_system_cost",
    "static_optima",
    "static_revenue_optimal",
    "static_sc_optimal",
    "dynamic_benchmarks",
]

DEFAULT_GRID_POINTS = 4096  # toll grid of both flat-toll searches


@dataclass(frozen=True)
class MfdDynamicBenchmarks:
    """Dynamic benchmarks for an urban scenario (all at critical accumulation)."""

    ro: bottleneck.DynamicTollDesign
    so: bottleneck.DynamicTollDesign
    sc_opt: float


def throughput(mfd: TriangularMfd, accumulation: float) -> float:
    """Outflow at a given accumulation: linear up to critical, linear down to jam."""
    slack = 1e-12 * mfd.jam_accumulation
    if accumulation < -slack or accumulation > mfd.jam_accumulation + slack:
        raise DomainError("accumulation must lie in [0, jam_accumulation]")
    accumulation = min(max(accumulation, 0.0), mfd.jam_accumulation)
    n_c = mfd.critical_accumulation
    if accumulation <= n_c:
        return accumulation * mfd.freeflow_speed / mfd.trip_distance
    return (
        mfd.max_throughput
        * (mfd.jam_accumulation - accumulation)
        / (mfd.jam_accumulation - n_c)
    )


def throughput_from_wait(mfd: TriangularMfd, wait: float) -> float:
    """Congested-branch outflow as a function of the excess travel time.

    Inverting the triangular relation gives
    ``n_j / (n_j / max_throughput + wait)``: strictly decreasing in the wait,
    equal to the peak at zero wait, and vanishing as the wait grows.
    """
    if wait < 0:
        raise DomainError("wait must be nonnegative")
    n_j = mfd.jam_accumulation
    return n_j / (n_j / mfd.max_throughput + wait)


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
    if np.min(toll) < lo - slack or np.max(toll) > hi + slack:
        raise DomainError(
            f"toll {toll!r} outside the mixed-mode band [{lo!r}, {hi!r}]; "
            "the all-car congested regime is not modeled"
        )


def _flat_toll(
    params: BottleneckParams, mfd: TriangularMfd, toll: float | np.ndarray
) -> CostBreakdown:
    """Cost pieces and revenue of a flat toll, unchecked; ``toll`` is a float or an array.

    The one implementation of the urban flat-toll formulas: the public
    functions and both searches evaluate it, a search on a whole grid at once.
    """
    n_j = mfd.jam_accumulation
    a = n_j / mfd.max_throughput
    lam = params.arrival_rate
    e, late = params.early_penalty, params.late_penalty
    wait = np.maximum(params.cost_gap - toll, 0.0)
    log_term = np.log1p(wait * mfd.max_throughput / n_j)
    shoulder = n_j / params.schedule_factor * log_term
    peak_flow = n_j / (a + wait)
    flat_len = (params.total_demand - shoulder) / lam
    car_users = shoulder + peak_flow * flat_len

    transit = params.transit_cost * (params.total_demand - car_users)
    car = params.car_freeflow_cost * car_users
    queue_flat = flat_len * peak_flow * wait
    queue_shoulders = (n_j / e + n_j / late) * (wait - a * log_term)
    # The schedule term is 0 at zero wait, where a / wait would divide by zero.
    divisor = np.where(wait > 0.0, wait, 1.0)
    sched_core = np.where(
        wait > 0.0, (wait - (n_j / lam) * log_term) * (1.0 - (a / divisor) * log_term), 0.0
    )
    schedule = (n_j / e + n_j / late) * sched_core
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


def static_optima(
    params: BottleneckParams, mfd: TriangularMfd
) -> tuple[tuple[float, CostBreakdown], tuple[float, CostBreakdown]]:
    """Revenue-maximizing and system-cost-minimizing flat tolls, with their cost pieces.

    One search serves both: a shared ``DEFAULT_GRID_POINTS``-point scan of
    the toll band ``[static_lower_toll, gap]``, then zoom passes that
    evaluate both brackets in one call (:func:`~tollgap.search.grid_refine_mins`).
    Each optimum comes as ``(toll, CostBreakdown at that toll)``.  The revenue
    curve is Lipschitz on the band, so the grid resolution bounds the
    optimality gap; the refinement makes boundary optima exact.  An empty
    band (nonpositive gap) degenerates to the toll ``max(gap, 0)``.
    """
    lo, hi = static_lower_toll(params, mfd), params.cost_gap
    if hi <= lo:
        tolls = [max(hi, 0.0)] * 2
    else:

        def objectives(toll: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            cost = _flat_toll(params, mfd, toll)
            return -cost.revenue, cost.total

        tolls = grid_refine_mins(objectives, lo, hi, DEFAULT_GRID_POINTS)
    ro, so = [(toll, _flat_toll(params, mfd, toll)) for toll in tolls]
    return ro, so


def static_revenue_optimal(params: BottleneckParams, mfd: TriangularMfd) -> tuple[float, float]:
    """Revenue-maximizing flat toll and its revenue, from :func:`static_optima`."""
    toll, cost = static_optima(params, mfd)[0]
    return toll, cost.revenue


def static_sc_optimal(params: BottleneckParams, mfd: TriangularMfd) -> tuple[float, float]:
    """System-cost-minimizing flat toll and its system cost, from :func:`static_optima`."""
    toll, cost = static_optima(params, mfd)[1]
    return toll, cost.total


def dynamic_benchmarks(params: BottleneckParams, mfd: TriangularMfd) -> MfdDynamicBenchmarks:
    """Dynamic revenue-optimal / system-cost-optimal benchmarks for the network.

    The optimal trapezoid schedules hold the network at the critical
    accumulation, where it behaves exactly like a fixed bottleneck of
    capacity ``max_throughput``; revenue and cost therefore come from the
    bottleneck module with the capacity swapped in.
    """
    delegated = BottleneckParams(
        total_demand=params.total_demand,
        arrival_rate=params.arrival_rate,
        capacity=mfd.max_throughput,
        early_penalty=params.early_penalty,
        late_penalty=params.late_penalty,
        car_freeflow_cost=params.car_freeflow_cost,
        transit_cost=params.transit_cost,
    )
    so = bottleneck.dynamic_so_design(delegated)
    return MfdDynamicBenchmarks(bottleneck.dynamic_revenue_optimal(delegated), so, so.system_cost)
