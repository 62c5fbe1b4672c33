"""Closed-form analysis of the tolled bottleneck with a transit outside option.

Everything here is algebra on :class:`~tollgap.core.BottleneckParams`: flat-toll
equilibria and their revenue/system cost, the revenue-optimal flat and
trapezoidal tolls (both reduce to single-variable quadratic programs), the
system-cost-optimal flat toll, and the worst-case performance bounds that
relate them.  The independent numeric checks live in ``tollgap.oracle``.

Throughout, ``gap`` denotes the cost advantage of driving at free flow
(transit cost minus car free-flow cost) and ``max_wait_car_only`` the peak
equilibrium wait were every user to drive.  A flat toll ``tau`` supports a
mixed-mode equilibrium only on the band
``max(0, gap - max_wait) <= tau <= gap``; below the band everyone drives,
above it everyone rides transit (ties at the top break toward the car, i.e.
toward higher revenue).

The kernels (``max_wait_car_only``, ``feasible_toll_band``, ``_flat_split``,
``_flat_toll``, ``static_equilibrium``, ``_window``, ``_flat_fractions``,
``_trapezoid_cost``, ``static_revenue_optimal_toll``,
``static_sc_optimal_toll`` and ``performance_bounds``) take one parameter set
or a :class:`~tollgap.core.ParamsBlock` of them.  Each branch is computed in
full and chosen by :func:`~tollgap.core.select`, with a stand-in denominator
wherever a branch not taken would divide by zero; on floats that is the scalar
formula, on a block it is the same formula elementwise.  No kernel reads a
:class:`~tollgap.core.Regime`: each band of the gap is picked by ``select`` on
:func:`~tollgap.core.regime_thresholds`.  The flat toll's branch, wait and
on-time share come from one derivation (``_flat_split``), and the untolled
equilibrium and the trapezoid schedule take their window from one helper
(``_window``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    BottleneckParams,
    CostBreakdown,
    DomainError,
    EquilibriumOutcome,
    TrapezoidToll,
    anywhere,
    clamp,
    regime_thresholds,
    select,
)

__all__ = [
    "DynamicTollDesign",
    "BoundReport",
    "max_wait_car_only",
    "feasible_toll_band",
    "static_equilibrium",
    "static_revenue",
    "static_revenue_optimal_toll",
    "dynamic_revenue_optimal",
    "dynamic_so_design",
    "static_system_cost",
    "static_sc_optimal_toll",
    "performance_bounds",
]


@dataclass(frozen=True)
class DynamicTollDesign:
    """A trapezoidal toll schedule summarized by its flat-segment fraction.

    ``flat_fraction`` is the share of the desired-crossing window covered by
    the peak-toll segment; ``revenue`` and ``system_cost`` are the schedule's
    own, from the trapezoid component sum.
    """

    flat_fraction: float
    policy: TrapezoidToll
    revenue: float
    system_cost: float


@dataclass(frozen=True)
class BoundReport:
    """Worst-case performance guarantees at the current parameter point.

    ``revenue_ratio_lower_bound`` bounds flat-optimal revenue over
    trapezoid-optimal revenue from below; it is None only in an urban report
    (``mfd.guarantees``) outside the low band.  ``sc_ratio_upper_bound`` (the
    factor-2 guarantee) is present only while transit is attractive enough
    that both modes run at the untolled equilibrium.  ``exact_sc_ratio`` is the exact cost ratio in the
    zero-free-flow-cost, car-saturated corner where the guarantee provably
    degenerates; None when its preconditions fail.  A block's report holds
    arrays, with NaN for None.  The band of the cost gap that picks the
    floor is not stored: :func:`~tollgap.core.classify_regime` names it.
    """

    revenue_ratio_lower_bound: float | None
    sc_ratio_upper_bound: float | None
    exact_sc_ratio: float | None


def max_wait_car_only(params: BottleneckParams) -> float:
    """Peak equilibrium wait if every user drove: demand * e*L/(e+L) / capacity.

    Zero when capacity meets the desired arrival rate (no queue forms).
    """
    car_only = params.total_demand * params.schedule_factor / params.capacity
    return select(params.capacity >= params.arrival_rate, 0.0, car_only)


def feasible_toll_band(params: BottleneckParams) -> tuple[float, float]:
    """Flat-toll band [max(0, gap - max_wait), gap] supporting mixed mode."""
    gap = params.cost_gap
    lo = gap - max_wait_car_only(params)
    return select(lo > 0.0, lo, 0.0), gap  # max(0.0, lo), elementwise


def _require_outside_option_regime(params: BottleneckParams) -> None:
    if anywhere(params.cost_gap < 0):
        raise DomainError("transit strictly dominates: no congested analysis applies")


def _flat_split(params: BottleneckParams, toll: float):
    """``(pick, wait, ontime_share)`` of a flat toll, elementwise on a block.

    The one derivation of the flat toll's branch and split.  ``pick(out,
    mixed, no_queue)`` gives a value on the toll's branch: ``out`` where
    every car is priced out (a negative gap, or a toll above it), else
    ``mixed`` where a queue forms (``mu < lam``) and ``no_queue`` where none
    does.  The peak wait is ``gap - toll`` clamped to ``[0, max_wait]``: the
    clamp's top is the car-only equilibrium below the band, its bottom the
    zero-queue split at the gap.  ``ontime_share`` is ``1 - wait/max_wait``.
    """
    if anywhere(toll < 0):
        raise DomainError("toll must be nonnegative")
    gap = params.cost_gap
    priced_out = (gap < 0) | (toll > gap)
    congested = params.capacity < params.arrival_rate
    max_wait = max_wait_car_only(params)
    wait = clamp(gap - toll, 0.0, max_wait)
    ontime_share = 1.0 - wait / select(congested, max_wait, 1.0)

    def pick(out: float, mixed: float, no_queue: float) -> float:
        return select(priced_out, out, select(congested, mixed, no_queue))

    return pick, wait, ontime_share


def _window(params: BottleneckParams, rise: float, flat: float, fall: float):
    """``(start, peak_start, peak_end, end)`` of a profile that rises, holds and falls.

    Service-rate accounting anchors the window: ``lam*(peak_start - 0) =
    mu*(peak_start - start)``, so the peak starts ``mu/lam`` of the rise
    after the desired window opens at 0.  The untolled equilibrium's wait
    profile and the trapezoid schedule share it.
    """
    peak_start = (params.capacity / params.arrival_rate) * rise
    peak_end = peak_start + flat
    return peak_start - rise, peak_start, peak_end, peak_end + fall


def _flat_toll(params: BottleneckParams, toll: float) -> CostBreakdown:
    """Cost pieces and revenue of a flat toll, for any toll and any gap.

    The one implementation of the flat-toll cost formulas, on the wait and
    on-time share of :func:`_flat_split`.  A toll above the gap (or a
    negative gap) prices every car out; with no queue (``mu >= lam``)
    everyone crosses on time by car and pays.
    """
    pick, wait, ontime_share = _flat_split(params, toll)
    demand = params.total_demand
    mu, lam = params.capacity, params.arrival_rate
    z_t, z_c = params.transit_cost, params.car_freeflow_cost
    away = 1.0 - mu / lam
    inv_factor = 1.0 / params.schedule_factor  # (e+L)/(eL)
    car_users = mu * wait * inv_factor + ontime_share * demand * mu / lam
    shoulders = (mu * wait * wait / 2.0) * inv_factor
    revenue = mu * toll * (demand / lam + wait / params.schedule_factor * away)
    return CostBreakdown(
        transit=pick(z_t * demand, z_t * ontime_share * demand * away, 0.0),
        car_freeflow=pick(0.0, z_c * car_users, z_c * demand),
        queuing=pick(0.0, wait * ontime_share * demand * mu / lam + shoulders, 0.0),
        schedule=pick(0.0, shoulders * away, 0.0),
        revenue=pick(0.0, revenue, toll * demand),
    )


def static_equilibrium(params: BottleneckParams, toll: float) -> EquilibriumOutcome:
    """Mode split and wait profile induced by a flat toll.

    In the mixed band the peak wait is ``gap - toll`` and the early/late/
    on-time/transit counts follow from the linear wait profile (slopes
    ``early_penalty`` up, ``late_penalty`` down) plus service-rate accounting
    (:func:`_window`).  Below the band the outcome is the car-only
    equilibrium; above it all users ride transit, except at ``toll == gap``
    where indifferent users break toward the car.  With no queue
    (``mu >= lam``) everyone crosses on time by car (at ``toll == gap`` the
    tie also resolves toward the car).
    """
    pick, wait, ontime_share = _flat_split(params, toll)
    demand, rush = params.total_demand, params.rush_length
    mu, lam = params.capacity, params.arrival_rate
    e, late = params.early_penalty, params.late_penalty
    start, peak_start, peak_end, end = _window(params, wait / e, ontime_share * rush, wait / late)
    return EquilibriumOutcome(
        pick(0.0, mu * wait / e, 0.0),
        pick(0.0, mu * wait / late, 0.0),
        pick(0.0, ontime_share * demand * mu / lam, demand),
        pick(demand, ontime_share * demand * (1.0 - mu / lam), 0.0),
        pick(0.0, wait, 0.0),
        pick(0.0, start, 0.0),
        pick(0.0, peak_start, 0.0),
        pick(0.0, peak_end, rush),
        pick(0.0, end, rush),
    )


def static_revenue(params: BottleneckParams, toll: float) -> float:
    """Revenue of a flat toll: toll times the number of car users.

    Defined for every nonnegative toll: below the band every user pays
    (``toll * demand``, from the wait clamped at the car-only peak), above
    the gap revenue is zero (all transit), and at the gap the tie-break keeps
    the capacity share in cars.  Keeping the function total simplifies grid
    sweeps; only a negative toll raises :class:`~tollgap.core.DomainError`.
    """
    return _flat_toll(params, toll).revenue


def static_revenue_optimal_toll(params: BottleneckParams) -> tuple[float, CostBreakdown]:
    """Revenue-maximizing flat toll with its cost pieces and revenue.

    The band-constrained quadratic program's optimum is its unconstrained
    vertex ``gap/2 + low_threshold/2`` clamped to the band
    ``[gap - max_wait, gap]``; a negative gap (all transit) takes no toll.
    Without a queue the band is the single point ``gap``.
    """
    gap = params.cost_gap
    low, _ = regime_thresholds(params)
    vertex = gap / 2.0 + low / 2.0
    toll = select(gap < 0, 0.0, clamp(vertex, gap - max_wait_car_only(params), gap))
    return toll, _flat_toll(params, toll)


def _flat_fractions(params: BottleneckParams) -> tuple[float, float]:
    """Flat fractions ``(f*, f_so)`` of the revenue- and cost-optimal trapezoids.

    ``f* = max(1 - gap/max_wait * (1 - mu/lam), 0)`` and
    ``f_so = 1 - min(gap/max_wait, 1)``; both are 1 when no queue forms.
    """
    _require_outside_option_regime(params)
    mu, lam = params.capacity, params.arrival_rate
    congested = mu < lam
    ratio = params.cost_gap / select(congested, max_wait_car_only(params), 1.0)
    f_star = clamp(1.0 - ratio * (1.0 - mu / lam), 0.0)
    return select(congested, f_star, 1.0), select(congested, 1.0 - clamp(ratio, hi=1.0), 1.0)


def _trapezoid_cost(params: BottleneckParams, flat_fraction: float) -> CostBreakdown:
    """Cost pieces and revenue of the zero-wait trapezoid with the given flat share.

    The one implementation of the trapezoid cost, as a component sum, and of
    its revenue ``R(f)``: queuing is zero by construction; transit, car and
    schedule costs follow from the flat fraction, and car cost and revenue
    from the one count of users served by car.  With no queue to price
    (``mu >= lam``, flat fraction 1) everyone drives and pays the gap.  A
    collapsed one-line form must carry ``(1-mu/lam)^2 (1+mu/lam)``; the
    ``(1-mu/lam)^3`` variant seen in derivations fails the calibrated
    benchmarks (see docs/formulas.md).  The square ``(1-f)^2`` is a product:
    numpy squares an array by multiplication, while Python's ``** 2`` calls
    C ``pow``, which rounds about one square in a thousand the other way.
    """
    demand, mu, lam = params.total_demand, params.capacity, params.arrival_rate
    z_c = params.car_freeflow_cost
    congested = mu < lam
    served = flat_fraction * demand * mu / lam + (1.0 - flat_fraction) * demand
    spread = (1.0 - flat_fraction) * (1.0 - flat_fraction)
    transit = params.transit_cost * flat_fraction * demand * (1.0 - mu / lam)
    shoulder_loss = demand * demand / (2.0 * mu) * params.schedule_factor
    schedule = shoulder_loss * spread * (1.0 - mu / lam)
    revenue = params.cost_gap * served - shoulder_loss * spread
    return CostBreakdown(
        transit=select(congested, transit, 0.0),
        car_freeflow=select(congested, z_c * served, z_c * demand),
        queuing=0.0,
        schedule=select(congested, schedule, 0.0),
        revenue=select(congested, revenue, params.cost_gap * demand),
    )


def _trapezoid_for_fraction(params: BottleneckParams, flat_fraction: float) -> TrapezoidToll:
    """Zero-wait trapezoid with peak at the cost gap and the given flat share."""
    e, late = params.early_penalty, params.late_penalty
    shoulder_users = (1.0 - flat_fraction) * params.total_demand
    rise = late / (e + late) * shoulder_users / params.capacity
    fall = e / (e + late) * shoulder_users / params.capacity
    window = _window(params, rise, flat_fraction * params.rush_length, fall)
    return TrapezoidToll(params.cost_gap, *window, rise_slope=e, fall_slope=late)


def _design(params: BottleneckParams, flat_fraction: float) -> DynamicTollDesign:
    """The trapezoid schedule at ``flat_fraction`` with its revenue and cost."""
    cost = _trapezoid_cost(params, flat_fraction)
    return DynamicTollDesign(
        flat_fraction, _trapezoid_for_fraction(params, flat_fraction), cost.revenue, cost.total
    )


def dynamic_revenue_optimal(params: BottleneckParams) -> DynamicTollDesign:
    """Revenue-maximizing trapezoid toll schedule.

    The optimal schedule eliminates queuing (any wait can be converted into
    toll), holds the peak toll at the cost gap over a flat fraction
    ``f* = max(1 - gap/max_wait * (1 - mu/lam), 0)`` of the rush, and tapers
    at the schedule-penalty slopes on either side.  A negative gap raises
    :class:`~tollgap.core.DomainError`, as in every trapezoid design.
    """
    return _design(params, _flat_fractions(params)[0])


def dynamic_so_design(params: BottleneckParams) -> DynamicTollDesign:
    """System-cost-optimal trapezoid toll, priced to its revenue-best variant.

    Its ``system_cost`` is the minimum system cost over all toll schedules.
    The schedule mirrors the untolled equilibrium wait profile, so its flat
    fraction is ``1 - min(gap/max_wait, 1)``.  When the gap exceeds the
    car-only peak wait everyone drives, and the profile is shifted up to peak
    at the gap (indifferent users break toward paying), which leaves system
    cost at the optimum while collecting the larger revenue.
    """
    return _design(params, _flat_fractions(params)[1])


def static_system_cost(params: BottleneckParams, toll: float) -> CostBreakdown:
    """System-cost components under a flat toll.

    In the mixed band the four groups follow from the trapezoidal wait
    profile with peak ``gap - toll``; below the band the wait clamps at the
    car-only peak, so the cost is the car-only constant; at the gap it is the
    zero-queue mode-split cost, and above the gap everyone rides transit.
    Revenue is reported alongside but never added into the total.
    """
    cost = _flat_toll(params, toll)
    _require_outside_option_regime(params)
    return cost


def static_sc_optimal_toll(params: BottleneckParams) -> tuple[float, CostBreakdown]:
    """System-cost-minimizing flat toll with its cost pieces and revenue.

    Evaluates three candidates over the feasible band: both endpoints, and
    the interior stationary point of the quadratic cost where it exists (only
    when ``mu/lam < 2/3``, where the cost is convex in the toll, and strictly
    inside the band), else the lower endpoint again.  The first cheapest
    candidate wins, in that order.  Below the band the cost is constant at
    the car-only value, so the lower endpoint stands in for that whole
    segment.
    """
    _require_outside_option_regime(params)
    lo, hi = feasible_toll_band(params)
    lam = params.arrival_rate
    ratio = params.capacity / lam
    convex = ratio < 2.0 / 3.0
    stationary = (
        params.total_demand * params.schedule_factor / lam + params.cost_gap * (1.0 - 2.0 * ratio)
    ) / select(convex, 2.0 - 3.0 * ratio, 1.0)
    mid = select(convex & (lo < stationary) & (stationary < hi), stationary, lo)
    at_lo, at_hi, at_mid = _flat_toll(params, lo), _flat_toll(params, hi), _flat_toll(params, mid)
    take_hi = at_hi.total < at_lo.total  # strict, so the first minimum wins a tie
    take_mid = at_mid.total < select(take_hi, at_hi.total, at_lo.total)

    def pick(lo_value: float, hi_value: float, mid_value: float) -> float:
        return select(take_mid, mid_value, select(take_hi, hi_value, lo_value))

    # A frozen dataclass's vars are its fields, in order.
    pieces = map(pick, vars(at_lo).values(), vars(at_hi).values(), vars(at_mid).values())
    return pick(lo, hi, mid), CostBreakdown(*pieces)


def performance_bounds(params: BottleneckParams) -> BoundReport:
    """Guarantees relating flat-optimal tolling to the dynamic benchmarks.

    The revenue lower bound takes one of three forms, never below one half,
    by the band of the gap: ``gap <= low``, ``gap <= high`` or above, with
    ``(low, high)`` from :func:`~tollgap.core.regime_thresholds` (ties go to
    the lower band, as in :func:`~tollgap.core.classify_regime`).  The
    factor-2 system-cost bound applies only while the cost gap stays within
    the car-only peak wait.  In the opposite corner (zero car free-flow cost,
    gap beyond ``low*(2*lam-mu)/mu``) the exact cost ratio
    ``1 + 1/(1 - mu/lam)`` is reported, which grows without bound as
    capacity approaches the arrival rate.  A block is in this domain only if
    every one of its sets is.
    """
    _require_outside_option_regime(params)
    if anywhere(params.capacity >= params.arrival_rate):
        raise DomainError("bounds are stated for the congested case (capacity < arrival rate)")
    gap = params.cost_gap
    mu, lam = params.capacity, params.arrival_rate
    low, high = regime_thresholds(params)
    # The middle bound is taken only where g > low > 0; elsewhere 1 stands in for g.
    mid_bound = clamp((2.0 + low / select(gap == 0, 1.0, gap)) / 4.0, hi=1.0 / (2.0 * (1.0 - mu / lam)))
    revenue_bound = select(gap <= low, 2.0 / (3.0 - mu / lam), select(gap <= high, mid_bound, 2.0 / 3.0))

    max_wait = max_wait_car_only(params)
    sc_bound = select(gap <= max_wait, 2.0, None)

    corner = (params.car_freeflow_cost == 0.0) & (gap > low * (2.0 * lam - mu) / mu)
    exact_ratio = select(corner, 1.0 + 1.0 / (1.0 - mu / lam), None)

    return BoundReport(revenue_bound, sc_bound, exact_ratio)
