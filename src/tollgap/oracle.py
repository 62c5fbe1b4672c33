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
is evidence rather than tautology.
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
    classify_regime,
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


@functools.cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    from numpy.polynomial.legendre import leggauss  # deferred: importing tollgap skips it

    return leggauss(n)


def _gauss_legendre(f, span: float) -> float:
    """Integral of the vectorized ``f`` over ``[0, span]``."""
    nodes, weights = _legendre_rule(GAUSS_LEGENDRE_NODES)
    return 0.5 * span * float(weights @ f(0.5 * span * (nodes + 1.0)))


def _trapezoid(t0: float, t1: float, y0: float, y1: float) -> float:
    """Integral of the line through ``(t0, y0)`` and ``(t1, y1)``, and 0 unless ``t1 > t0``.

    Below the band the flat segment can come out an ulp negative.
    """
    return (t1 - t0) * (y1 + y0) / 2.0 if t1 > t0 else 0.0


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
    the service interval.
    """
    if params.cost_gap < 0:
        raise DomainError("simulation requires transit_cost >= car_freeflow_cost")
    if toll < 0:
        raise DomainError("toll must be nonnegative")

    demand, lam = params.total_demand, params.arrival_rate
    mu = min(params.capacity, lam)
    e, late = params.early_penalty, params.late_penalty
    gap = params.cost_gap
    regime = classify_regime(params)

    if toll > gap:
        # Strictly dominated car: nothing flows, everything is transit.
        outcome = EquilibriumOutcome(0, 0, 0, demand, 0, 0, 0, 0, 0, regime)
        return outcome, CostBreakdown(params.transit_cost * demand, 0.0, 0.0, 0.0, 0.0)

    # Car-only peak wait, rebuilt from the slope geometry: serving all demand
    # at rate mu takes demand/mu hours split e:L across rise and fall.
    if params.capacity >= lam:
        peak_wait = 0.0
    else:
        rise_share = late / (e + late)
        peak_wait = e * rise_share * demand / mu
        peak_wait = min(max(gap - toll, 0.0), peak_wait)

    rise_len = peak_wait / e
    fall_len = peak_wait / late
    car_only_span = demand / mu
    flat_len = (
        params.rush_length
        if params.capacity >= lam
        else (1.0 - (rise_len + fall_len) / car_only_span) * params.rush_length
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
    cost = CostBreakdown(
        transit=params.transit_cost * n_transit,
        car_freeflow=params.car_freeflow_cost * n_car,
        queuing=queuing,
        schedule=schedule,
        revenue=revenue,
    )
    outcome = EquilibriumOutcome(
        n_early, n_late, n_ontime, n_transit, peak_wait, start, peak_start, peak_end, end, regime
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


def _static_revenue_curve(params: BottleneckParams, tolls: np.ndarray) -> np.ndarray:
    """Vectorized transcription of the flat-toll revenue curve.

    On the band a toll ``T`` earns ``mu*T*(demand/lam + (gap - T)/sf*(1 - mu/lam))``,
    which is ``T*(c0 - c1*T)`` with ``c1 = mu*(1 - mu/lam)/sf`` and
    ``c0 = mu*demand/lam + c1*gap``.  Below the band's bottom ``lo`` every
    user drives and pays, ``T*demand = T*(c0 - c1*lo)``, so the curve is
    ``T*(c0 - c1*max(T, lo))`` up to the gap, and 0 above it.  With no queue
    (``mu >= lam``) it is ``T*demand`` up to the gap: ``c1 = 0``, ``c0 = demand``.
    ``params`` is one parameter set and ``tolls`` a vector, or a block of
    sets, each reading its own row of ``tolls``.  The curve is built in
    place, since a dense grid's temporaries would dominate its cost.
    """

    def column(values) -> np.ndarray:
        return np.asarray(values, dtype=float)[..., np.newaxis]

    demand, lam, mu = (column(v) for v in (params.total_demand, params.arrival_rate, params.capacity))
    gap, factor = column(params.cost_gap), column(params.schedule_factor)
    queued = mu < lam
    c1 = np.where(queued, mu * (1 - mu / lam) / factor, 0.0)
    c0 = np.where(queued, mu * demand / lam + c1 * gap, demand)
    lo = np.where(queued, np.maximum(0.0, gap - demand * factor / mu), 0.0)
    revenue = np.maximum(tolls, lo)
    revenue *= c1
    np.subtract(c0, revenue, out=revenue)
    revenue *= tolls
    revenue[tolls > gap] = 0.0
    return revenue


def grid_search_static(params: BottleneckParams) -> tuple[float, float]:
    """Exhaustive flat-toll revenue argmax over [0, gap]."""
    gap = max(params.cost_gap, 0.0)
    tolls = np.linspace(0.0, gap, SEARCH_POINTS)
    values = _static_revenue_curve(params, tolls)
    i = int(np.argmax(values))
    return float(tolls[i]), float(values[i])


def grid_search_dynamic_fraction(params: BottleneckParams) -> tuple[float, float]:
    """Exhaustive flat-fraction revenue argmax over the feasible band."""
    demand, lam, mu = params.total_demand, params.arrival_rate, params.capacity
    gap = params.cost_gap
    car_only_wait = demand * params.schedule_factor / mu
    f_lo = 1.0 - min(gap / car_only_wait, 1.0) if car_only_wait > 0 else 1.0
    fracs = np.linspace(f_lo, 1.0, SEARCH_POINTS)
    values = gap * (fracs * demand * mu / lam + (1.0 - fracs) * demand) - (
        demand * demand / (2.0 * mu) * params.schedule_factor * (1.0 - fracs) ** 2
    )
    i = int(np.argmax(values))
    return float(fracs[i]), float(values[i])


def _shoulder(
    params: BottleneckParams, mfd: TriangularMfd, wait: float, slope: float
) -> tuple[float, float, float]:
    """(served cars, queue, schedule) over a shoulder whose wait falls from ``wait`` to 0 at ``slope``.

    The integrands are the outflow, alone or times the wait or the shrinking
    schedule offset; all three are 0 at zero wait, where the span vanishes.
    """
    if wait == 0.0:
        return 0.0, 0.0, 0.0
    n_j, a = mfd.jam_accumulation, mfd.jam_accumulation / mfd.max_throughput
    span = wait / slope
    served = _gauss_legendre(lambda x: n_j / (a + wait - slope * x), span)
    queue = _gauss_legendre(lambda x: n_j * (wait - slope * x) / (a + wait - slope * x), span)
    offset = span - served / params.arrival_rate  # shoulder duration minus desired-window share
    sched = _gauss_legendre(
        lambda x: (n_j / (a + wait - slope * x)) * offset * (span - x) / span, span
    )
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
