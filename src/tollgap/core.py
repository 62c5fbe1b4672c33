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
The module needs only the standard library, so the urban network's plain
``TriangularMfd`` lives here and not in ``mfd``: loading a scenario does not
load numpy.

Every bottleneck kernel reads a :class:`ParamsBlock` (parameter sets stacked
into arrays) as it reads one :class:`BottleneckParams`, elementwise.  Its
clamps and branch choices go through :func:`clamp` and :func:`select`, which
take Python's ``min``/``max`` and conditional expression on floats and import
numpy only when given an array.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

__all__ = [
    "ParameterError",
    "DomainError",
    "BottleneckParams",
    "ParamsBlock",
    "TriangularMfd",
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


def select(cond, if_true, if_false):
    """``if_true if cond else if_false``, elementwise when ``cond`` is an array.

    On an array an absent value (None) reads as NaN, so a block's optional
    bound is a float array.
    """
    if getattr(cond, "ndim", 0) == 0:
        return if_true if cond else if_false
    import numpy as np

    nan_for_none = (math.nan if v is None else v for v in (if_true, if_false))
    return np.where(cond, *nan_for_none)


def clamp(x, lo=-math.inf, hi=math.inf):
    """``min(max(x, lo), hi)``, elementwise, with the same picks, when any argument is an array.

    Python's ``max(x, lo)`` is ``lo if lo > x else x``; the array form keeps
    that, so a NaN or a signed zero comes out as it does on floats.
    """
    if getattr(x, "ndim", 0) == getattr(lo, "ndim", 0) == getattr(hi, "ndim", 0) == 0:
        return min(max(x, lo), hi)
    x = select(lo > x, lo, x)
    return select(hi < x, hi, x)


def anywhere(cond) -> bool:
    """``cond``, or whether it holds anywhere in an array: a block is in a domain only whole."""
    return bool(cond.any() if getattr(cond, "ndim", 0) else cond)


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
        return select(abs(gap) < sys.float_info.min, 0.0, gap)

    @property
    def schedule_factor(self) -> float:
        """Harmonic combination e*L/(e+L) of the two schedule penalties."""
        e, late = self.early_penalty, self.late_penalty
        return e * late / (e + late)


class ParamsBlock(BottleneckParams):
    """Parameter sets stacked field by field into equal-length float64 arrays.

    Built by :meth:`stack` from validated sets, so it skips their checks.  The
    derived properties are elementwise, and a bottleneck kernel's result at
    index ``i`` is its result on the ``i``-th set.  It inherits the frozen
    dataclass machinery (re-applying the decorator costs the CLI's import
    about 0.7 ms).
    """

    def __post_init__(self) -> None:
        pass

    @classmethod
    def stack(cls, sets: Sequence[BottleneckParams]) -> ParamsBlock:
        import numpy as np

        names = [f.name for f in dataclasses.fields(BottleneckParams)]
        return cls(*(np.array([getattr(p, name) for p in sets], dtype=float) for name in names))

    def __getitem__(self, rows) -> ParamsBlock:
        """The sets at ``rows`` (an index, an index array or a slice), as a block."""
        return ParamsBlock(*(getattr(self, f.name)[rows] for f in dataclasses.fields(self)))


@dataclass(frozen=True)
class TriangularMfd:
    """Triangular accumulation-outflow relation for an urban network.

    Attributes:
        max_throughput: peak outflow, vehicles/hour, reached at the critical
            accumulation.
        jam_accumulation: accumulation at which outflow hits zero (vehicles).
        freeflow_speed: km/hour on the uncongested branch.
        trip_distance: fixed trip length, km; together with the speed it
            fixes the critical accumulation ``max_throughput * D / v_f``.
    """

    max_throughput: float
    jam_accumulation: float
    freeflow_speed: float
    trip_distance: float

    def __post_init__(self) -> None:
        for name in ("max_throughput", "jam_accumulation", "freeflow_speed", "trip_distance"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ParameterError(f"{name} must be finite and positive")
        if not self.critical_accumulation < self.jam_accumulation:
            raise ParameterError(
                "critical accumulation must fall strictly below jam accumulation"
            )

    @property
    def critical_accumulation(self) -> float:
        return self.max_throughput * self.trip_distance / self.freeflow_speed


class Regime(enum.Enum):
    """Report label for the band of the cost gap a parameter set falls in.

    The kernels never read it: they pick each branch by :func:`select` on
    the gap against :func:`regime_thresholds`.  The sweep row, ``analyze``
    and ``verify``'s failure messages print it.
    """

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
    They mean something only where ``capacity < arrival_rate``; elsewhere,
    which a block may mix in, ``lam - mu`` reads as infinite, so no set
    divides by zero.
    """
    lam, mu = params.arrival_rate, params.capacity
    base = params.total_demand * params.schedule_factor
    excess = select(mu < lam, lam - mu, math.inf)
    low = base / excess
    high = base * (1.0 / excess + 2.0 / mu)
    return low, high


def classify_regime(params: BottleneckParams) -> Regime:
    """The report label of a parameter set's band: the regime that governs it.

    Ties at a threshold resolve to the lower-indexed regime, as the kernels'
    ``gap <= low`` and ``gap <= high`` picks do; both branch formulas agree
    at the boundary, so the choice is cosmetic.  Transit dominates exactly
    when ``cost_gap`` is negative, so a subnormal gap, which reads as 0, is
    congested like a zero gap.  On a block the labels come as an object
    array of :class:`Regime` members.
    """
    gap = params.cost_gap
    low, high = regime_thresholds(params)
    above_low = select(gap <= high, Regime.MIXED_MID, Regime.MIXED_HIGH)
    congested = select(gap <= low, Regime.MIXED_LOW, above_low)
    nonnegative = select(params.capacity >= params.arrival_rate, Regime.UNCONGESTED, congested)
    return select(gap < 0, Regime.ALL_TRANSIT, nonnegative)


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
    between ``peak_start`` and ``peak_end``.  The regime does not depend on
    the toll: it is :func:`classify_regime` of the parameters.
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
