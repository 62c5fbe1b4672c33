"""Shared domain types, unit conventions, and regime classification.

Unit conventions
----------------
Every per-user cost in the model is expressed in *hours of waiting time*:
monetary inputs are divided by the value of waiting time at ingestion (see
``tollgap.calibration``) and never reach these modules as dollars.  Aggregate
quantities (revenue, system cost) are user-hours.

The rush clock starts at 0: users' desired crossing times are uniform on
``[0, total_demand / arrival_rate]``.  Every formula depends only on interval
lengths, so fixing the origin removes a free translation parameter.

All types are immutable value objects and every operation is a pure function.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

__all__ = [
    "ParameterError",
    "DomainError",
    "BottleneckParams",
    "Regime",
    "TrapezoidToll",
    "EquilibriumOutcome",
    "CostBreakdown",
    "classify_regime",
    "regime_thresholds",
]


class ParameterError(ValueError):
    """Model parameters violate a documented invariant."""


class DomainError(ValueError):
    """An argument falls outside an operation's domain."""


@dataclass(frozen=True)
class BottleneckParams:
    """Primitives of the peak-period bottleneck with a transit outside option.

    Attributes:
        total_demand: users wanting to cross during the rush (> 0).
        arrival_rate: desired crossing rate in users/hour (> 0); the rush
            window is ``total_demand / arrival_rate`` hours long.
        capacity: bottleneck service rate in vehicles/hour (> 0).
        early_penalty: schedule-delay cost per hour of earliness, as a
            fraction of the waiting-time penalty; must lie strictly in (0, 1).
        late_penalty: schedule-delay cost per hour of lateness (> 0).
        car_freeflow_cost: generalized cost of an uncongested, untolled car
            trip, in hours (>= 0).
        transit_cost: fixed generalized cost of the transit alternative, in
            hours (>= 0).
    """

    total_demand: float
    arrival_rate: float
    capacity: float
    early_penalty: float
    late_penalty: float
    car_freeflow_cost: float
    transit_cost: float

    def __post_init__(self) -> None:
        for name in (
            "total_demand",
            "arrival_rate",
            "capacity",
            "early_penalty",
            "late_penalty",
            "car_freeflow_cost",
            "transit_cost",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        if self.total_demand <= 0:
            raise ParameterError("total_demand must be positive")
        if self.arrival_rate <= 0:
            raise ParameterError("arrival_rate must be positive")
        if self.capacity <= 0:
            raise ParameterError("capacity must be positive")
        if not 0 < self.early_penalty < 1:
            raise ParameterError("early_penalty must lie strictly in (0, 1)")
        if self.late_penalty <= 0:
            raise ParameterError("late_penalty must be positive")
        if self.car_freeflow_cost < 0 or self.transit_cost < 0:
            raise ParameterError("mode costs must be nonnegative")

    @property
    def rush_length(self) -> float:
        """Length of the desired-crossing window, in hours."""
        return self.total_demand / self.arrival_rate

    @property
    def cost_gap(self) -> float:
        """Transit cost minus car free-flow cost, in hours (may be negative).

        A subnormal gap reads as 0: products of it keep too few bits to compare.
        """
        gap = self.transit_cost - self.car_freeflow_cost
        return 0.0 if abs(gap) < sys.float_info.min else gap

    @property
    def schedule_factor(self) -> float:
        """Harmonic combination e*L/(e+L) of the two schedule penalties."""
        e, late = self.early_penalty, self.late_penalty
        return e * late / (e + late)


class Regime(enum.Enum):
    """Which closed-form branch governs equilibria and optimal tolls."""

    ALL_TRANSIT = "all_transit"
    UNCONGESTED = "uncongested"
    MIXED_LOW = "mixed_low"
    MIXED_MID = "mixed_mid"
    MIXED_HIGH = "mixed_high"


def regime_thresholds(params: BottleneckParams) -> tuple[float, float]:
    """Cutpoints on the cost gap separating the three congested regimes.

    Returns ``(low, high)``: below ``low`` the revenue-optimal flat toll sits
    at the cost gap itself; above ``high`` it sits at the lower edge of the
    feasible band; in between it is the interior quadratic-program optimum.
    Requires ``capacity < arrival_rate``.
    """
    lam, mu = params.arrival_rate, params.capacity
    base = params.total_demand * params.schedule_factor
    low = base / (lam - mu)
    high = base * (1.0 / (lam - mu) + 2.0 / mu)
    return low, high


def classify_regime(params: BottleneckParams) -> Regime:
    """Map a parameter set to the single regime that governs it.

    Ties at a threshold resolve to the lower-indexed regime; both branch
    formulas agree at the boundary, so the choice is cosmetic.  Transit
    dominates exactly when ``cost_gap`` is negative, so a subnormal gap,
    which reads as 0, is congested like a zero gap.
    """
    gap = params.cost_gap
    if gap < 0:
        return Regime.ALL_TRANSIT
    if params.capacity >= params.arrival_rate:
        return Regime.UNCONGESTED
    low, high = regime_thresholds(params)
    if gap <= low:
        return Regime.MIXED_LOW
    if gap <= high:
        return Regime.MIXED_MID
    return Regime.MIXED_HIGH


@dataclass(frozen=True)
class TrapezoidToll:
    """Continuous piecewise-linear toll: rise, flat peak, fall.

    The toll rises at ``rise_slope`` on ``[start, peak_start]``, holds at
    ``peak`` on ``[peak_start, peak_end]``, and falls at ``fall_slope`` on
    ``[peak_end, end]``; the linear pieces clamp at zero, and the toll is
    zero outside ``[start, end]``.  Slopes are stored as positive magnitudes.
    """

    peak: float
    start: float
    peak_start: float
    peak_end: float
    end: float
    rise_slope: float
    fall_slope: float

    def __post_init__(self) -> None:
        if not self.start <= self.peak_start <= self.peak_end <= self.end:
            raise ParameterError("trapezoid breakpoints must be ordered")
        if self.peak < 0:
            raise ParameterError("trapezoid peak must be nonnegative")

    def value(self, t: float) -> float:
        if t < self.start or t > self.end:
            return 0.0
        if t < self.peak_start:
            return max(self.peak - self.rise_slope * (self.peak_start - t), 0.0)
        if t <= self.peak_end:
            return self.peak
        return max(self.peak - self.fall_slope * (t - self.peak_end), 0.0)


@dataclass(frozen=True)
class EquilibriumOutcome:
    """Mode split, peak wait, and service interval of a flat-toll equilibrium.

    Counts are in users, times on the rush clock.  ``start``/``end`` bound
    the car-service interval; the wait profile peaks (at ``peak_wait``)
    between ``peak_start`` and ``peak_end``.
    """

    n_early: float
    n_late: float
    n_ontime_car: float
    n_transit: float
    peak_wait: float
    start: float
    peak_start: float
    peak_end: float
    end: float
    regime: Regime

    @property
    def n_car(self) -> float:
        return self.n_early + self.n_late + self.n_ontime_car

    @property
    def total(self) -> float:
        return self.n_car + self.n_transit


@dataclass(frozen=True)
class CostBreakdown:
    """System-cost components in user-hours, plus the toll revenue.

    ``total`` is the exact sum of the four cost components.  Revenue is kept
    separate: toll payments are transfers, not resource costs, so they are
    excluded from the total.
    """

    transit: float
    car_freeflow: float
    queuing: float
    schedule: float
    revenue: float

    @property
    def total(self) -> float:
        return self.transit + self.car_freeflow + self.queuing + self.schedule
