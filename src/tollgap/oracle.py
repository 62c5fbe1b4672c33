"""Brute-force numeric verification of every closed form in the package.

Nothing here reuses the closed-form revenue or cost expressions from
``tollgap.bottleneck`` / ``tollgap.mfd``: equilibria are rebuilt from first
principles (wait slopes, service-rate accounting, the indifference ceiling),
the bottleneck's piecewise-linear integrands are integrated by the trapezoid
rule on each linear segment's two ends (exact, since every kink is a segment
end), the urban network's curved shoulder integrals by fixed Gauss–Legendre
quadrature, and optima are recovered by exhaustive search.  One call answers
a flat toll in each model, with its revenue and four cost pieces as a
``CostBreakdown``: :func:`static_bottleneck_costs` and
:func:`mfd_shoulder_quadrature`.  Where a search needs a revenue curve, the
curve is an independent transcription evaluated point by point, so agreement
is evidence rather than tautology.  The bottleneck rebuild and both searches
take a :class:`~tollgap.core.ParamsBlock` of sets as well as one set: their
branches go through ``core.select`` and ``core.clamp``, which choose values
and hold no formula, so the oracle stays independent of the closed forms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    BottleneckParams,
    CostBreakdown,
    DomainError,
    EquilibriumOutcome,
    TriangularMfd,
    anywhere,
    clamp,
    select,
)

__all__ = [
    "EquilibriumTrace",
    "static_bottleneck_costs",
    "simulate_static_bottleneck",
    "grid_search_static",
    "grid_search_dynamic_fraction",
    "integrate_mfd_revenue",
    "mfd_shoulder_quadrature",
]


@dataclass(frozen=True)
class EquilibriumTrace:
    """Equilibrium profiles over the car-service interval, at the segment ends.

    The nodes are the ends of the wait profile's linear segments, so every
    kink is a node and the profiles are exact between nodes by linear
    interpolation.  Cumulative counts are cars only.
    """

    times: np.ndarray
    wait: np.ndarray
    toll: np.ndarray
    throughput: np.ndarray
    cum_arrivals: np.ndarray
    cum_departures: np.ndarray


GAUSS_LEGENDRE_NODES = 128  # shoulder rule; 256 nodes move no piece by 1e-12 relative
SEARCH_POINTS = 10_000  # uniform grid of both exhaustive revenue searches
CHUNK_FLOATS = 30_000  # floats of one work array of a block search: 240 KB, 3 sets of 10 000 points


@functools.cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    from numpy.polynomial.legendre import leggauss  # deferred: importing tollgap skips it

    return leggauss(n)


def _trapezoid(t0: float, t1: float, y0: float, y1: float) -> float:
    """Integral of the line through ``(t0, y0)`` and ``(t1, y1)``, and 0 unless ``t1 > t0``.

    Below the band the flat segment can come out an ulp negative.
    """
    return select(t1 > t0, (t1 - t0) * (y1 + y0) / 2.0, 0.0)


def static_bottleneck_costs(
    params: BottleneckParams, toll: float
) -> tuple[EquilibriumOutcome, CostBreakdown]:
    """Rebuild the flat-toll equilibrium numerically and integrate its costs.

    The wait profile is the trapezoid with peak ``clamp(gap - toll, 0,
    car-only max wait)``, slopes equal to the schedule penalties, and
    endpoints anchored by service-rate accounting (cars desiring the early
    window are exactly the cars served over the rising segment, and
    symmetrically for the late one).  Revenue and the four cost components
    come from the trapezoid rule on each of the profile's three linear
    segments, exact from the segment's two ends; mode counts are read off
    the service interval.  ``params`` may be a block and ``toll`` an array:
    every branch is then taken elementwise through ``select`` and ``clamp``.
    """
    if anywhere(params.cost_gap < 0):
        raise DomainError("simulation requires transit_cost >= car_freeflow_cost")
    if anywhere(toll < 0):
        raise DomainError("toll must be nonnegative")

    demand, lam = params.total_demand, params.arrival_rate
    mu = clamp(params.capacity, hi=lam)
    e, late = params.early_penalty, params.late_penalty
    gap = params.cost_gap
    # Strictly dominated car: nothing flows, everything is transit.
    priced_out = toll > gap
    no_queue = params.capacity >= lam

    # Car-only peak wait, rebuilt from the slope geometry: serving all demand
    # at rate mu takes demand/mu hours split e:L across rise and fall.
    rise_share = late / (e + late)
    car_only_wait = e * rise_share * demand / mu
    peak_wait = select(no_queue, 0.0, clamp(gap - toll, 0.0, car_only_wait))

    rise_len = peak_wait / e
    fall_len = peak_wait / late
    car_only_span = demand / mu
    flat_len = select(
        no_queue,
        params.rush_length,
        (1.0 - (rise_len + fall_len) / car_only_span) * params.rush_length,
    )

    peak_start = (mu / lam) * rise_len
    start = peak_start - rise_len
    peak_end = peak_start + flat_len
    end = peak_end + fall_len

    away = 1.0 - mu / lam
    revenue = toll * mu * (end - start)
    queuing = mu * (
        _trapezoid(start, peak_start, 0.0, e * (peak_start - start))
        + _trapezoid(peak_start, peak_end, peak_wait, peak_wait)
        + _trapezoid(peak_end, end, peak_wait, peak_wait - late * (end - peak_end))
    )
    schedule = mu * away * (
        e * _trapezoid(start, peak_start, peak_start - start, 0.0)
        + late * _trapezoid(peak_end, end, 0.0, end - peak_end)
    )
    n_car = mu * (end - start)
    n_early = mu * (peak_start - start)
    n_late = mu * (end - peak_end)
    n_ontime = mu * (peak_end - peak_start)
    n_transit = demand - n_car

    def flowing(value):
        return select(priced_out, 0.0, value)

    cost = CostBreakdown(
        transit=params.transit_cost * select(priced_out, demand, n_transit),
        car_freeflow=flowing(params.car_freeflow_cost * n_car),
        queuing=flowing(queuing),
        schedule=flowing(schedule),
        revenue=flowing(revenue),
    )
    outcome = EquilibriumOutcome(
        *map(flowing, (n_early, n_late, n_ontime)),
        select(priced_out, demand, n_transit),
        *map(flowing, (peak_wait, start, peak_start, peak_end, end)),
    )
    return outcome, cost


def simulate_static_bottleneck(
    params: BottleneckParams, toll: float, dt: float | None = None
) -> tuple[EquilibriumTrace, EquilibriumOutcome, CostBreakdown]:
    """:func:`static_bottleneck_costs` plus the equilibrium profiles at the segment ends.

    The outcome and the cost are exactly those of ``static_bottleneck_costs``.
    A segment's end is a node only when it lies past the segment's start.
    ``dt`` is accepted and ignored: the segment ends describe the
    piecewise-linear profiles exactly.
    """
    outcome, cost = static_bottleneck_costs(params, toll)
    if toll > params.cost_gap:
        times = np.array([0.0, params.rush_length])
        zeros = np.zeros_like(times)
        trace = EquilibriumTrace(times, zeros, np.full_like(times, toll), zeros, zeros, zeros)
        return trace, outcome, cost

    mu = min(params.capacity, params.arrival_rate)
    e, late = params.early_penalty, params.late_penalty
    start, peak_start, peak_end, end = outcome.start, outcome.peak_start, outcome.peak_end, outcome.end
    peak_wait = outcome.peak_wait
    ends = [(start, 0.0), (peak_start, e * (peak_start - start)), (peak_end, peak_wait)]
    ends.append((end, peak_wait - late * (end - peak_end)))
    nodes = ends[:1] + [node for prev, node in zip(ends, ends[1:]) if node[0] > prev[0]]
    times, wait = map(np.array, zip(*nodes))
    cum_dep = mu * (times - start)
    # FIFO inversion: the car crossing at time t arrived at t - wait(t), so
    # the arrival curve is the departure curve read through that map.
    s2 = peak_start - peak_wait
    s3 = peak_end - peak_wait
    denom_rise = max(1.0 - e, 1e-300)
    cum_arr = np.where(
        times <= s2,
        mu * (times - start) / denom_rise,
        np.where(
            times <= s3,
            mu * (times + peak_wait - start),
            mu * ((times + peak_wait + late * peak_end) / (1.0 + late) - start),
        ),
    )
    cum_arr = np.minimum(cum_arr, mu * (end - start))
    trace = EquilibriumTrace(
        times, wait, np.full_like(times, float(toll)), np.full_like(times, mu), cum_arr, cum_dep
    )
    return trace, outcome, cost


def _column(values) -> np.ndarray:
    """A set's value, or a block's values as a column, to broadcast against grid rows."""
    return np.asarray(values, dtype=float)[..., np.newaxis]


def _search(params: BottleneckParams, stop, curve, points: int = SEARCH_POINTS) -> tuple:
    """Each set's first grid point of largest ``curve`` value, and that value.

    A set's grid has ``points`` uniform points from 0 to its ``stop``, in
    ``numpy.linspace``'s own arithmetic (the index times the step, with the
    last point set to the end), so it equals the set's ``linspace`` bit for
    bit.  ``curve(sets, grid, out)`` writes the sets' values on their grid
    rows into ``out``.  One set gives floats; a block gives arrays, and is
    searched ``CHUNK_FLOATS // points`` sets at a time with every chunk in
    the same two arrays: dense arrays allocated afresh per chunk cost more
    to fault in than to fill.
    """
    block = np.ndim(params.total_demand) > 0
    n = len(params.total_demand) if block else 1
    height = max(CHUNK_FLOATS // points, 1)
    stop = np.broadcast_to(np.asarray(stop, dtype=float), (n,))
    index = np.arange(points, dtype=float)
    work = [np.empty((min(n, height), points)) for _ in range(2)]
    argmax, best = np.empty(n), np.empty(n)
    for first in range(0, n, height):
        rows = slice(first, first + height)
        grid, values = (array[: len(best[rows])] for array in work)
        np.multiply(index, (stop[rows] / (points - 1))[:, np.newaxis], out=grid)
        grid[:, -1] = stop[rows]
        curve(params[rows] if block else params, grid, values)
        i = np.argmax(values, axis=1)
        at = np.arange(len(i)), i
        argmax[rows], best[rows] = grid[at], values[at]
    return (argmax, best) if block else (float(argmax[0]), float(best[0]))


def _static_revenue_curve(
    params: BottleneckParams, tolls: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized transcription of the flat-toll revenue curve.

    On the band a toll ``T`` earns ``mu*T*(demand/lam + (gap - T)/sf*(1 - mu/lam))``,
    which is ``T*(c0 - c1*T)`` with ``c1 = mu*(1 - mu/lam)/sf`` and
    ``c0 = mu*demand/lam + c1*gap``.  Below the band's bottom ``lo`` every
    user drives and pays, ``T*demand = T*(c0 - c1*lo)``, so the curve is
    ``T*(c0 - c1*max(T, lo))`` up to the gap, and 0 above it.  With no queue
    (``mu >= lam``) it is ``T*demand`` up to the gap: ``c1 = 0``, ``c0 = demand``.
    ``params`` is one parameter set and ``tolls`` a vector, or a block of
    sets, each reading its own row of ``tolls``.  The curve is built in
    place (in ``out`` if given), since a dense grid's temporaries would
    dominate its cost.
    """
    demand, lam, mu = (_column(v) for v in (params.total_demand, params.arrival_rate, params.capacity))
    gap, factor = _column(params.cost_gap), _column(params.schedule_factor)
    queued = mu < lam
    c1 = np.where(queued, mu * (1 - mu / lam) / factor, 0.0)
    c0 = np.where(queued, mu * demand / lam + c1 * gap, demand)
    lo = np.where(queued, np.maximum(0.0, gap - demand * factor / mu), 0.0)
    revenue = np.maximum(tolls, lo, out=out)
    revenue *= c1
    np.subtract(c0, revenue, out=revenue)
    revenue *= tolls
    revenue[tolls > gap] = 0.0
    return revenue


def _fraction_revenue_curve(params: BottleneckParams, shares: np.ndarray, out: np.ndarray) -> None:
    """``R(f)`` on the shoulder shares ``u = 1 - f``, into ``out``.

    ``R(f) = gap*(f*N*mu/lam + (1-f)*N) - N*N/(2*mu)*sf*(1-f)**2``, by
    Horner's rule in ``u``: ``gap*N*mu/lam + (gap*N*(1 - mu/lam) - N*N/(2*mu)*sf*u)*u``.
    Built in place, as :func:`_static_revenue_curve` is.
    """
    demand, lam, mu = (_column(v) for v in (params.total_demand, params.arrival_rate, params.capacity))
    gap, factor = _column(params.cost_gap), _column(params.schedule_factor)
    np.multiply(shares, demand * demand / (2.0 * mu) * factor, out=out)
    np.subtract(gap * demand * (1.0 - mu / lam), out, out=out)
    out *= shares
    out += gap * demand * mu / lam


def grid_search_static(params: BottleneckParams, points: int = SEARCH_POINTS) -> tuple[float, float]:
    """Exhaustive flat-toll revenue argmax over ``points`` uniform tolls on [0, gap].

    For a block, each set's argmax toll and revenue, as arrays.
    """
    return _search(params, clamp(params.cost_gap, 0.0), _static_revenue_curve, points)


def grid_search_dynamic_fraction(params: BottleneckParams) -> tuple[float, float]:
    """Exhaustive flat-fraction revenue argmax over the feasible band.

    The grid runs over the shoulder share ``u = 1 - f`` from 0 to
    ``min(gap/car_only_wait, 1)``.  For a block, each set's argmax fraction
    and revenue, as arrays.  A negative gap, where no fraction is feasible,
    raises DomainError; a block is in the domain only as a whole.
    """
    if anywhere(params.cost_gap < 0):
        raise DomainError("the fraction search requires transit_cost >= car_freeflow_cost")
    car_only_wait = params.total_demand * params.schedule_factor / params.capacity
    top = clamp(params.cost_gap / car_only_wait, hi=1.0)
    shares, revenue = _search(params, top, _fraction_revenue_curve)
    return 1.0 - shares, revenue


def _shoulder(
    params: BottleneckParams, mfd: TriangularMfd, wait: float, slope: float
) -> tuple[float, float, float]:
    """(served cars, queue, schedule) over a shoulder whose wait falls from ``wait`` to 0 at ``slope``.

    The integrands are the outflow, alone or times the wait or the shrinking
    schedule offset; all three are 0 at zero wait, where the span vanishes.
    One Gauss–Legendre rule on ``[0, span]`` takes all three from one
    evaluation of the outflow at its nodes.
    """
    if wait == 0.0:
        return 0.0, 0.0, 0.0
    n_j, a = mfd.jam_accumulation, mfd.jam_accumulation / mfd.max_throughput
    nodes, weights = _legendre_rule(GAUSS_LEGENDRE_NODES)
    span = wait / slope
    half = 0.5 * span
    x = half * (nodes + 1.0)
    fall = slope * x
    lag = a + wait - fall  # hours: n_j over the outflow
    outflow = n_j / lag
    served = half * float(weights @ outflow)
    queue = half * float(weights @ (n_j * (wait - fall) / lag))
    offset = span - served / params.arrival_rate  # shoulder duration minus desired-window share
    sched = half * float(weights @ (outflow * offset * (span - x) / span))
    return served, queue, slope * sched


def mfd_shoulder_quadrature(
    params: BottleneckParams, mfd: TriangularMfd, toll: float
) -> CostBreakdown:
    """Revenue and the four cost pieces of a flat toll on the urban network, by quadrature.

    Each shoulder's served cars, queue and schedule come from one Gauss–Legendre
    integral each (:func:`_shoulder`), written as the closed antiderivatives'
    sources.  The flat segment's length comes from those car counts, not from
    the closed log expression, and the flat block runs at the peak outflow.  A
    toll below the band, where that length is negative, raises DomainError.
    """
    wait = max(params.cost_gap - toll, 0.0)
    n_j, a = mfd.jam_accumulation, mfd.jam_accumulation / mfd.max_throughput
    served_early, queue_early, sched_early = _shoulder(params, mfd, wait, params.early_penalty)
    served_late, queue_late, sched_late = _shoulder(params, mfd, wait, params.late_penalty)
    flat_len = (params.total_demand - (served_early + served_late)) / params.arrival_rate
    if flat_len < -1e-9 * params.rush_length:
        raise DomainError("toll below the operational band: flat segment would be negative")
    car_users = served_early + served_late + n_j / (a + wait) * max(flat_len, 0.0)
    return CostBreakdown(
        transit=params.transit_cost * (params.total_demand - car_users),
        car_freeflow=params.car_freeflow_cost * car_users,
        queuing=queue_early + queue_late + flat_len * n_j / (a + wait) * wait,
        schedule=sched_early + sched_late,
        revenue=toll * car_users,
    )


def integrate_mfd_revenue(
    params: BottleneckParams, mfd: TriangularMfd, toll: float, dt: float | None = None
) -> float:
    """:func:`mfd_shoulder_quadrature`'s revenue at a toll in ``[0, gap]``; ``dt`` is ignored."""
    gap = params.cost_gap
    if toll < 0 or toll > gap + 1e-12 * max(1.0, abs(gap)):
        raise DomainError("toll must lie in [0, gap]")
    return mfd_shoulder_quadrature(params, mfd, toll).revenue
