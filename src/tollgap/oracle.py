"""Brute-force numeric verification of every closed form in the package.

Nothing here reuses the closed-form revenue or cost expressions from
``tollgap.bottleneck`` / ``tollgap.mfd``: equilibria are rebuilt on a time
grid from first principles (wait slopes, service-rate accounting, the
indifference ceiling), revenues and cost components are integrated by the
trapezoid rule, shoulder integrals are evaluated by adaptive quadrature, and
optima are recovered by exhaustive search.  Where a search needs a revenue
curve, the curve is an independent transcription evaluated point by point,
so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BottleneckParams, CostBreakdown, DomainError, EquilibriumOutcome, classify_regime
from .mfd import TriangularMfd

__all__ = [
    "EquilibriumTrace",
    "simulate_static_bottleneck",
    "grid_search_static",
    "grid_search_dynamic_fraction",
    "integrate_mfd_revenue",
    "mfd_shoulder_quadrature",
]


@dataclass(frozen=True)
class EquilibriumTrace:
    """Sampled equilibrium profiles over the car-service interval.

    The grid is uniform within each linear segment of the wait profile with
    step at most the requested resolution, and every kink is a node (the
    trapezoid rule needs the breakpoints to integrate piecewise-linear
    profiles without O(step) error).  Cumulative counts are cars only.
    """

    times: np.ndarray
    wait: np.ndarray
    toll: np.ndarray
    throughput: np.ndarray
    cum_arrivals: np.ndarray
    cum_departures: np.ndarray


def _segment_nodes(a: float, b: float, dt: float) -> np.ndarray:
    if b <= a:
        return np.array([a])
    n = max(int(math.ceil((b - a) / dt)), 1)
    return np.linspace(a, b, n + 1)


def simulate_static_bottleneck(
    params: BottleneckParams, toll: float, dt: float = 1e-4
) -> tuple[EquilibriumTrace, EquilibriumOutcome, CostBreakdown]:
    """Rebuild the flat-toll equilibrium numerically and integrate its costs.

    The wait profile is the trapezoid with peak ``clamp(gap - toll, 0,
    car-only max wait)``, slopes equal to the schedule penalties, and
    endpoints anchored by service-rate accounting (cars desiring the early
    window are exactly the cars served over the rising segment, and
    symmetrically for the late one).  Revenue and the four cost components
    come from trapezoid quadrature over that profile; mode counts are read
    off the cumulative curves.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    if dt > params.rush_length / 100.0:
        raise DomainError("dt coarser than 1/100 of the rush window: verification meaningless")
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
        times = np.array([0.0, params.rush_length])
        zeros = np.zeros_like(times)
        trace = EquilibriumTrace(times, zeros, np.full_like(times, toll), zeros, zeros, zeros)
        outcome = EquilibriumOutcome(0, 0, 0, demand, 0, 0, 0, 0, 0, regime)
        cost = CostBreakdown(params.transit_cost * demand, 0.0, 0.0, 0.0, 0.0)
        return trace, outcome, cost

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

    t_rise = _segment_nodes(start, peak_start, dt)
    t_flat = _segment_nodes(peak_start, peak_end, dt)
    t_fall = _segment_nodes(peak_end, end, dt)

    w_rise = e * (t_rise - start)
    w_flat = np.full_like(t_flat, peak_wait)
    w_fall = peak_wait - late * (t_fall - peak_end)

    def trapz(y: np.ndarray, x: np.ndarray) -> float:
        return float(np.trapezoid(y, x)) if x.size > 1 else 0.0

    away = 1.0 - mu / lam
    revenue = toll * mu * (end - start)
    queuing = mu * (trapz(w_rise, t_rise) + trapz(w_flat, t_flat) + trapz(w_fall, t_fall))
    schedule = mu * e * away * trapz(peak_start - t_rise, t_rise) + mu * late * away * trapz(
        t_fall - peak_end, t_fall
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

    times = np.concatenate([t_rise, t_flat[1:], t_fall[1:]])
    wait = np.concatenate([w_rise, w_flat[1:], w_fall[1:]])
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
    cum_arr = np.minimum(cum_arr, n_car)
    trace = EquilibriumTrace(
        times, wait, np.full_like(times, float(toll)), np.full_like(times, mu), cum_arr, cum_dep
    )
    return trace, outcome, cost


def _static_revenue_curve(params: BottleneckParams, tolls: np.ndarray) -> np.ndarray:
    """Vectorized transcription of the flat-toll revenue curve."""
    demand, lam, mu = params.total_demand, params.arrival_rate, params.capacity
    gap = params.cost_gap
    if mu >= lam:
        return np.where(tolls <= gap, tolls * demand, 0.0)
    car_only_wait = demand * params.schedule_factor / mu
    lo = max(0.0, gap - car_only_wait)
    banded = mu * tolls * (demand / lam + (gap - tolls) / params.schedule_factor * (1 - mu / lam))
    return np.where(tolls < lo, tolls * demand, np.where(tolls > gap, 0.0, banded))


def grid_search_static(params: BottleneckParams, grid_points: int = 10_000) -> tuple[float, float]:
    """Exhaustive flat-toll revenue argmax over [0, gap]."""
    if grid_points < 100:
        raise DomainError("grid_points must be at least 100 for a meaningful search")
    gap = max(params.cost_gap, 0.0)
    tolls = np.linspace(0.0, gap, grid_points)
    values = _static_revenue_curve(params, tolls)
    i = int(np.argmax(values))
    return float(tolls[i]), float(values[i])


def grid_search_dynamic_fraction(
    params: BottleneckParams, grid_points: int = 10_000
) -> tuple[float, float]:
    """Exhaustive flat-fraction revenue argmax over the feasible band."""
    if grid_points < 100:
        raise DomainError("grid_points must be at least 100 for a meaningful search")
    demand, lam, mu = params.total_demand, params.arrival_rate, params.capacity
    gap = params.cost_gap
    car_only_wait = demand * params.schedule_factor / mu
    f_lo = 1.0 - min(gap / car_only_wait, 1.0) if car_only_wait > 0 else 1.0
    fracs = np.linspace(f_lo, 1.0, grid_points)
    values = gap * (fracs * demand * mu / lam + (1.0 - fracs) * demand) - (
        demand * demand / (2.0 * mu) * params.schedule_factor * (1.0 - fracs) ** 2
    )
    i = int(np.argmax(values))
    return float(fracs[i]), float(values[i])


def integrate_mfd_revenue(
    params: BottleneckParams, mfd: TriangularMfd, toll: float, dt: float = 1e-4
) -> float:
    """Numeric revenue of a flat toll on the urban network.

    Integrates the wait-dependent outflow along the trapezoidal wait profile
    (slopes equal to the schedule penalties, peak ``gap - toll``); the flat
    segment's length comes from counting shoulder cars numerically, not from
    the closed log expression.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    if dt > params.rush_length / 100.0:
        raise DomainError("dt coarser than 1/100 of the rush window: verification meaningless")
    gap = params.cost_gap
    if toll < 0 or toll > gap + 1e-12 * max(1.0, abs(gap)):
        raise DomainError("toll must lie in [0, gap]")
    wait = max(gap - toll, 0.0)
    n_j, mu_f = mfd.jam_accumulation, mfd.max_throughput

    def outflow(w):
        return n_j / (n_j / mu_f + w)

    e, late = params.early_penalty, params.late_penalty
    x_rise = _segment_nodes(0.0, wait / e, dt)
    x_fall = _segment_nodes(0.0, wait / late, dt)
    served_rise = float(np.trapezoid(outflow(wait - e * x_rise), x_rise)) if x_rise.size > 1 else 0.0
    served_fall = float(np.trapezoid(outflow(wait - late * x_fall), x_fall)) if x_fall.size > 1 else 0.0
    flat_len = (params.total_demand - (served_rise + served_fall)) / params.arrival_rate
    if flat_len < -1e-9 * params.rush_length:
        raise DomainError("toll below the operational band: flat segment would be negative")
    return toll * (served_rise + served_fall + outflow(wait) * max(flat_len, 0.0))


def mfd_shoulder_quadrature(
    params: BottleneckParams, mfd: TriangularMfd, toll: float
) -> dict[str, float]:
    """Adaptive quadrature of the four shoulder cost integrals.

    Integrands are written exactly as the closed antiderivatives' sources:
    outflow at the shoulder wait times the queuing wait (queue terms) or
    times the linearly shrinking schedule offset (schedule terms).
    """
    gap = params.cost_gap
    wait = max(gap - toll, 0.0)
    n_j, mu_f = mfd.jam_accumulation, mfd.max_throughput
    lam = params.arrival_rate
    a = n_j / mu_f
    e, late = params.early_penalty, params.late_penalty
    if wait == 0.0:
        return {"queue_early": 0.0, "queue_late": 0.0, "sched_early": 0.0, "sched_late": 0.0}
    from scipy.integrate import quad  # deferred: only this function needs scipy

    def queue_piece(slope: float) -> float:
        span = wait / slope
        value, _ = quad(
            lambda x: n_j * (wait - slope * x) / (a + wait - slope * x),
            0.0,
            span,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=200,
        )
        return value

    def sched_piece(slope: float) -> float:
        span = wait / slope
        served, _ = quad(
            lambda x: n_j / (a + wait - slope * x), 0.0, span, epsabs=1e-12, epsrel=1e-12, limit=200
        )
        offset = span - served / lam  # shoulder duration minus desired-window share
        value, _ = quad(
            lambda x: (n_j / (a + wait - slope * x)) * offset * (span - x) / span,
            0.0,
            span,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=200,
        )
        return slope * value

    return {
        "queue_early": queue_piece(e),
        "queue_late": queue_piece(late),
        "sched_early": sched_piece(e),
        "sched_late": sched_piece(late),
    }

