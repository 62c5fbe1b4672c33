"""Brute-force numeric verification of every closed form in the package.

Nothing here reuses the closed-form revenue or cost expressions from
``tollgap.bottleneck`` / ``tollgap.mfd``: equilibria are rebuilt from first
principles (wait slopes, service-rate accounting, the indifference ceiling),
the bottleneck's piecewise-linear integrands are integrated by the trapezoid
rule on each linear segment's two ends (exact, since every kink is a segment
end), the urban network's curved shoulder integrals by fixed Gauss–Legendre
quadrature, and the revenue optima are certified from the oracle's own
piecewise-quadratic shape.  One call answers a flat toll in each model, with
its revenue and four cost pieces as a ``CostBreakdown``:
:func:`static_bottleneck_costs` and :func:`mfd_shoulder_quadrature`.  A flat
toll's service window is derived in one place (:func:`_service_window`), and
every bottleneck entry point reads it.  The one closed form written out again
here is the trapezoid revenue curve (:func:`_fraction_revenue_curve`), which
the fraction certificate evaluates point by point, so agreement is evidence
rather than tautology; a certificate of the equilibrium itself is to replace
it.  The bottleneck rebuild and the certificates take a
:class:`~tollgap.core.ParamsBlock` of sets as well as one set: their branches
go through ``core.select`` and ``core.clamp``, which choose values and hold no
formula, so the oracle stays independent of the closed forms.
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
    "flat_certificate",
    "fraction_certificate",
    "grid_search_static",
    "integrate_mfd_revenue",
    "mfd_shoulder_quadrature",
]


@dataclass(frozen=True)
class EquilibriumTrace:
    """The wait profile over the car-service interval, at its segment ends.

    The nodes are the ends of the profile's linear segments, so every kink
    is a node and the profile is exact between nodes by linear interpolation.
    """

    times: np.ndarray
    wait: np.ndarray


GAUSS_LEGENDRE_NODES = 128  # shoulder rule; 256 nodes move no piece by 1e-12 relative
SEARCH_POINTS = 10_000  # uniform grid of the flat-toll revenue search, which only the benchmark times


@functools.cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    from numpy.polynomial.legendre import leggauss  # deferred: importing tollgap skips it

    return leggauss(n)


def _trapezoid(t0: float, t1: float, y0: float, y1: float) -> float:
    """Integral of the line through ``(t0, y0)`` and ``(t1, y1)``, and 0 unless ``t1 > t0``.

    Below the band the flat segment can come out an ulp negative.
    """
    return select(t1 > t0, (t1 - t0) * (y1 + y0) / 2.0, 0.0)


def _require_open_gap(params: BottleneckParams) -> None:
    """Raise DomainError unless every set's transit costs at least its free-flow car trip."""
    if anywhere(params.cost_gap < 0):
        raise DomainError("the oracle requires transit_cost >= car_freeflow_cost")


def _car_only_wait(params: BottleneckParams) -> float:
    """Car-only peak wait, rebuilt from the slope geometry.

    Serving all demand at rate ``mu = min(capacity, lam)`` takes ``demand/mu``
    hours, split e:L across rise and fall.
    """
    e, late = params.early_penalty, params.late_penalty
    mu = clamp(params.capacity, hi=params.arrival_rate)
    return e * (late / (e + late)) * params.total_demand / mu


def _service_window(params: BottleneckParams, toll: float) -> tuple:
    """``(mu, peak_wait, start, peak_start, peak_end, end)`` of a flat toll's wait profile.

    The profile is the trapezoid with peak ``clamp(gap - toll, 0, car-only
    max wait)`` and slopes equal to the schedule penalties, served at ``mu =
    min(capacity, lam)``; its endpoints are anchored by service-rate
    accounting (cars desiring the early window are exactly the cars served
    over the rising segment, and symmetrically for the late one).  With no
    queue the peak is 0 and the window is the rush.  Elementwise on a block
    or a toll array.
    """
    lam = params.arrival_rate
    mu = clamp(params.capacity, hi=lam)
    no_queue = params.capacity >= lam
    peak_wait = select(no_queue, 0.0, clamp(params.cost_gap - toll, 0.0, _car_only_wait(params)))

    rise_len = peak_wait / params.early_penalty
    fall_len = peak_wait / params.late_penalty
    car_only_span = params.total_demand / mu
    flat_len = select(
        no_queue,
        params.rush_length,
        (1.0 - (rise_len + fall_len) / car_only_span) * params.rush_length,
    )

    peak_start = (mu / lam) * rise_len
    start = peak_start - rise_len
    peak_end = peak_start + flat_len
    end = peak_end + fall_len
    return mu, peak_wait, start, peak_start, peak_end, end


def static_bottleneck_costs(
    params: BottleneckParams, toll: float
) -> tuple[EquilibriumOutcome, CostBreakdown]:
    """Rebuild the flat-toll equilibrium numerically and integrate its costs.

    The equilibrium is :func:`_service_window`'s wait profile.  Revenue and
    the four cost components come from the trapezoid rule on each of the
    profile's three linear segments, exact from the segment's two ends; mode
    counts are read off the service interval.  ``params`` may be a block and
    ``toll`` an array: every branch is then taken elementwise through
    ``select`` and ``clamp``.
    """
    _require_open_gap(params)
    if anywhere(toll < 0):
        raise DomainError("toll must be nonnegative")

    demand, lam = params.total_demand, params.arrival_rate
    e, late = params.early_penalty, params.late_penalty
    # Strictly dominated car: nothing flows, everything is transit.
    priced_out = toll > params.cost_gap
    mu, peak_wait, start, peak_start, peak_end, end = _service_window(params, toll)

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
    """:func:`static_bottleneck_costs` plus the wait profile at its segment ends.

    The outcome and the cost are exactly those of ``static_bottleneck_costs``.
    A segment's end is a node only when it lies past the segment's start;
    above the gap no car flows and the trace is a zero wait over the rush.
    ``dt`` is accepted and ignored: the segment ends describe the
    piecewise-linear profile exactly.
    """
    outcome, cost = static_bottleneck_costs(params, toll)
    if toll > params.cost_gap:
        times = np.array([0.0, params.rush_length])
        return EquilibriumTrace(times, np.zeros_like(times)), outcome, cost

    start, peak_start, peak_end, end = outcome.start, outcome.peak_start, outcome.peak_end, outcome.end
    peak_wait = outcome.peak_wait
    ends = [(start, 0.0), (peak_start, params.early_penalty * (peak_start - start)), (peak_end, peak_wait)]
    ends.append((end, peak_wait - params.late_penalty * (end - peak_end)))
    nodes = ends[:1] + [node for prev, node in zip(ends, ends[1:]) if node[0] > prev[0]]
    times, wait = map(np.array, zip(*nodes))
    return EquilibriumTrace(times, wait), outcome, cost


def grid_search_static(params: BottleneckParams, points: int = SEARCH_POINTS) -> tuple[float, float]:
    """The first flat-toll revenue argmax over ``points`` uniform tolls on [0, gap], and its revenue.

    One set; each toll's revenue ``toll*mu*(end - start)`` is read off
    :func:`_service_window`.  A negative gap raises DomainError, as in
    :func:`static_bottleneck_costs`.  ``verify`` certifies the optimum by
    :func:`flat_certificate`; this search is kept for the benchmark, which
    times it.
    """
    _require_open_gap(params)
    tolls = np.linspace(0.0, params.cost_gap, points)
    mu, _, start, _, _, end = _service_window(params, tolls)
    revenue = tolls * mu * (end - start)
    i = int(np.argmax(revenue))
    return float(tolls[i]), float(revenue[i])


def _certify(params: BottleneckParams, curve, starts, stops) -> tuple:
    """Each set's largest ``curve`` value over its quadratic pieces, its point, and the shape residual.

    ``starts`` and ``stops`` hold the pieces' ends, a piece a column (a
    block's sets a row each), and ``curve(sets, points)`` is evaluated
    elementwise.  Each piece is fitted by the quadratic through the curve at
    its two ends and its midpoint, and the fit is checked at its quarter
    point, ``(3*y0 + 6*y_mid - y1)/8``: a set's residual is the largest miss,
    relative to the largest of its piece's four values.  A quadratic's
    maximum on an interval lies at an end or at its vertex, so the largest
    curve value at the fit points and at each concave piece's vertex,
    clipped to the piece, is the curve's maximum once the shape holds.  The
    fit points take one curve call and the vertices a second.  One set gives
    floats; a block gives arrays.
    """
    block = np.ndim(params.total_demand) > 0
    rows = params[:, np.newaxis] if block else params
    width = stops - starts
    # The ends are the pieces' own: a toll rebuilt as start + width can round past the gap.
    fit = np.stack([starts, starts + 0.5 * width, stops, starts + 0.25 * width], axis=-1)
    fit_points = fit.reshape(*width.shape[:-1], -1)
    fit_values = curve(rows, fit_points)
    values = fit_values.reshape(fit.shape)
    y0, y_mid, y1, y_quarter = np.moveaxis(values, -1, 0)
    miss = np.abs((3.0 * y0 + 6.0 * y_mid - y1) / 8.0 - y_quarter)
    scale = np.abs(values).max(axis=-1)
    residual = (miss / np.where(scale > 0.0, scale, 1.0)).max(axis=-1)
    # q(s) = y0 + slope*s + bend*s**2 on s in [0, 1]; a concave piece peaks at slope/(-2*bend).
    slope = 4.0 * y_mid - 3.0 * y0 - y1
    bend = 2.0 * (y0 - 2.0 * y_mid + y1)
    concave = bend < 0.0
    at = np.clip(np.where(concave, slope, 0.0) / np.where(concave, -2.0 * bend, 1.0), 0.0, 1.0)
    vertex = np.minimum(starts + at * width, stops)
    points = np.concatenate([fit_points, vertex], axis=-1)
    found = np.concatenate([fit_values, curve(rows, vertex)], axis=-1)
    i = np.argmax(found, axis=-1)[..., np.newaxis]  # a NaN wins
    argmax, best = (np.take_along_axis(v, i, axis=-1)[..., 0] for v in (points, found))
    return (argmax, best, residual) if block else (float(argmax), float(best), float(residual))


def flat_certificate(params: BottleneckParams) -> tuple[float, float, float]:
    """The oracle's flat-toll revenue maximum on [0, gap], certified from its shape.

    On ``[0, g]`` the revenue of :func:`static_bottleneck_costs` is linear
    below the kink ``k = clamp(g - W_max, 0, g)``, with ``W_max`` this
    module's car-only wait (every user drives and waits ``W_max``), and
    quadratic above it (the peak wait is ``g - toll``).  Returns the argmax
    toll, the certified maximum and the shape residual (:func:`_certify`),
    for a block as arrays.  A negative gap raises DomainError, as in
    :func:`static_bottleneck_costs`.
    """
    gap = params.cost_gap
    kink = clamp(gap - _car_only_wait(params), 0.0, gap)
    starts = np.stack(np.broadcast_arrays(0.0, kink), axis=-1)
    stops = np.stack(np.broadcast_arrays(kink, gap), axis=-1)
    return _certify(
        params, lambda sets, tolls: static_bottleneck_costs(sets, tolls)[1].revenue, starts, stops
    )


def _fraction_revenue_curve(params: BottleneckParams, shares):
    """``R(f)`` on the shoulder shares ``u = 1 - f``, elementwise.

    ``R(f) = gap*(f*N*mu/lam + (1-f)*N) - N*N/(2*mu)*sf*(1-f)**2``, by
    Horner's rule in ``u``: ``gap*N*mu/lam + (gap*N*(1 - mu/lam) - N*N/(2*mu)*sf*u)*u``.
    The service rate is this module's ``mu = min(capacity, lam)``, so with no
    queue the maximum is ``gap*N``, at ``u = 0``.
    """
    demand, lam, gap = params.total_demand, params.arrival_rate, params.cost_gap
    mu = clamp(params.capacity, hi=lam)
    spread = shares * (demand * demand / (2.0 * mu) * params.schedule_factor)
    return (gap * demand * (1.0 - mu / lam) - spread) * shares + gap * demand * mu / lam


def fraction_certificate(params: BottleneckParams) -> tuple[float, float, float]:
    """The trapezoid revenue ``R(f)``'s maximum over the feasible fractions, certified from its shape.

    ``R`` is one quadratic in the shoulder share ``u = 1 - f`` on
    ``[0, min(gap/W_max, 1)]``, with ``W_max`` this module's car-only wait.
    Returns the argmax fraction ``1 - u``, the certified maximum and the
    shape residual (:func:`_certify`), for a block as arrays.  A negative
    gap, where no fraction is feasible, raises DomainError; a block is in the
    domain only as a whole.
    """
    _require_open_gap(params)
    top = np.asarray(clamp(params.cost_gap / _car_only_wait(params), hi=1.0), dtype=float)[..., np.newaxis]
    shares, revenue, residual = _certify(params, _fraction_revenue_curve, np.zeros_like(top), top)
    return 1.0 - shares, revenue, residual


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
