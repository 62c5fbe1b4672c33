"""Discomfort-multiplier sweeps: one row of policy metrics per eta value.

A :class:`Sweep` computes every row of a command at once, one urban
flat-toll search per (eta, jam level) set; rows are written in eta order
with a fixed 8-decimal format, so identical inputs produce byte-identical
CSV output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace

from . import bottleneck
from .calibration import Scenario
from .core import DomainError, Regime, classify_regime

__all__ = [
    "SweepRow", "CSV_HEADER", "TOLLS", "REVENUES", "COSTS", "Sweep",
    "compute_row", "compute_rows", "write_csv", "nj_divergence",
]

DIVERGENCE_REL_TOL = 1e-9  # spread, relative to the largest value, that nj_divergence reports


@dataclass(frozen=True)
class SweepRow:
    """All policy metrics at one discomfort multiplier.

    The fields are the one description of a CSV row (see :data:`CSV_HEADER`):
    eta and regime; each ``tau_*`` toll as a ``*_hours`` and a ``*_dollars``
    column; each ``rev_*`` revenue and ``sc_*`` system cost; then the ratio
    of each revenue and cost, in a column named with ``_ratio`` after its
    prefix (``rev_ratio_static_ro``, ``sc_ratio_opt``).  Revenues and system
    costs are user-hours.  A revenue ratio is normalized by ``rev_dynamic_ro``
    and a cost ratio by ``sc_opt``, so revenue ratios never exceed 1 and cost
    ratios never drop below 1; a zero denominator gives nan.
    """

    eta: float
    regime: Regime
    tau_static_ro: float
    tau_static_so: float
    rev_static_ro: float
    rev_static_so: float
    rev_dynamic_ro: float
    rev_dynamic_so: float
    sc_static_ro: float
    sc_static_so: float
    sc_dynamic_ro: float
    sc_opt: float
    value_of_time: float

    def _ratio(self, value: float, denom: float) -> float:
        return value / denom if denom != 0 else float("nan")

    def rev_ratio(self, value: float) -> float:
        return self._ratio(value, self.rev_dynamic_ro)

    def sc_ratio(self, value: float) -> float:
        return self._ratio(value, self.sc_opt)

    def ratio(self, name: str) -> float:
        """Ratio of the revenue or system cost field ``name``."""
        value = getattr(self, name)
        return self.rev_ratio(value) if name in REVENUES else self.sc_ratio(value)

    def numbers(self) -> list[float]:
        """The hours and dollar numbers of the CSV row, in header order."""
        numbers = []
        for name in TOLLS:
            hours = float(getattr(self, name))
            numbers += [hours, hours * self.value_of_time]
        return numbers + [getattr(self, name) for name in AMOUNTS]

    def csv_values(self) -> tuple[str, ...]:
        numbers = [*self.numbers(), *map(self.ratio, AMOUNTS)]
        return (f"{self.eta:.8f}", self.regime.value, *(f"{x:.8f}" for x in numbers))


_NAMES = tuple(f.name for f in fields(SweepRow))
TOLLS = tuple(name for name in _NAMES if name.startswith("tau_"))
REVENUES = tuple(name for name in _NAMES if name.startswith("rev_"))
COSTS = tuple(name for name in _NAMES if name.startswith("sc_"))
AMOUNTS = REVENUES + COSTS
CSV_HEADER = (
    *_NAMES[:2],  # eta, regime
    *(f"{name}_{unit}" for name in TOLLS for unit in ("hours", "dollars")),
    *AMOUNTS,
    *(name.replace("_", "_ratio_", 1) for name in AMOUNTS),
)
# The flat-toll fields: the trapezoid schedules do not depend on the jam level.
_FLAT = tuple(name for name in _NAMES if "_static_" in name)


def _require_in_range(scenario: Scenario, eta: float, numbers) -> None:
    """Raise :class:`DomainError` at the first ``(name, value)`` that is not finite and nonnegative.

    Finite but huge inputs (a demand of 1e300, a jam accumulation of 1.7e308)
    overflow the formulas, and such a number is no result.
    """
    for name, value in numbers:
        if not (math.isfinite(value) and value >= 0):
            raise DomainError(
                f"scenario {scenario.name!r} at eta={eta:g}: {name} = {value:g} is out of range"
                " (the inputs overflow the model)"
            )


class Sweep:
    """Policy metrics of a scenario at a set of etas and jam levels.

    Construction does the work: the flat-toll optima of each (eta, jam
    level) set come from one :func:`~tollgap.mfd.static_optima` search (a
    fixed-capacity scenario has one level and closed forms), and each
    eta's trapezoid designs are computed once, as they hold an urban network
    at its critical accumulation, where the jam level drops out; ``params``
    carries the maximum throughput as capacity.  ``levels`` defaults to the
    scenario's default level.  :meth:`row` builds and checks one row.
    """

    def __init__(self, scenario: Scenario, etas, levels=()) -> None:
        self.scenario, self.etas = scenario, sorted(etas)
        self._default = scenario.default_jam_accumulation if scenario.is_mfd else None
        levels = levels or (self._default,)
        self._params = {eta: scenario.params(eta) for eta in self.etas}
        priced = {
            eta: params
            for eta, params in self._params.items()
            if classify_regime(params) is not Regime.ALL_TRANSIT
        }
        self._designs = {
            eta: (bottleneck.dynamic_revenue_optimal(params), bottleneck.dynamic_so_design(params))
            for eta, params in priced.items()
        }
        keys = [(eta, nj) for eta in priced for nj in levels]
        if scenario.is_mfd and priced:
            from . import mfd  # deferred: fixed-capacity and all-transit rows never load numpy

            nets = {nj: replace(scenario.mfd(), jam_accumulation=nj) for nj in levels}
            optima = [mfd.static_optima(priced[eta], nets[nj]) for eta, nj in keys]
        else:  # closed forms, or no set at all
            optima = [
                (bottleneck.static_revenue_optimal_toll(p), bottleneck.static_sc_optimal_toll(p))
                for p in priced.values()
            ]
        self._optima = dict(zip(keys, optima))

    def row(self, eta: float, level: float | None = None) -> SweepRow:
        """The row at ``eta`` and jam level ``level`` (default: the scenario's).

        Raises :class:`DomainError` naming the CSV column when one of the
        row's hours or dollar numbers is not finite or is negative.
        """
        scenario, params = self.scenario, self._params[eta]
        regime = classify_regime(params)
        if regime is Regime.ALL_TRANSIT:
            # Transit dominates outright: no policy collects revenue or changes cost.
            cost = params.transit_cost * params.total_demand
            values = dict.fromkeys(TOLLS + REVENUES, 0.0) | dict.fromkeys(COSTS, cost)
        else:
            (tau_ro, ro), (tau_so, so) = self._optima[eta, self._default if level is None else level]
            dyn_ro, dyn_so = self._designs[eta]
            values = dict(
                tau_static_ro=tau_ro, tau_static_so=tau_so,
                rev_static_ro=ro.revenue, rev_static_so=so.revenue,
                rev_dynamic_ro=dyn_ro.revenue, rev_dynamic_so=dyn_so.revenue,
                sc_static_ro=ro.total, sc_static_so=so.total,
                sc_dynamic_ro=dyn_ro.system_cost, sc_opt=dyn_so.system_cost,
            )
        row = SweepRow(eta, regime, value_of_time=scenario.value_of_time, **values)
        _require_in_range(scenario, eta, zip(CSV_HEADER[2:], row.numbers()))
        return row

    def rows(self) -> list[SweepRow]:
        """Rows for every eta at the scenario's default jam level, in eta order."""
        return [self.row(eta) for eta in self.etas]


def compute_row(scenario: Scenario, eta: float) -> SweepRow:
    """Evaluate all four policies at one discomfort multiplier (see :meth:`Sweep.row`)."""
    return Sweep(scenario, [eta]).row(eta)


def compute_rows(scenario: Scenario, etas, max_workers: int | None = None) -> list[SweepRow]:
    """Rows for every eta, in eta order, from one :class:`Sweep`.

    ``max_workers`` is accepted and ignored: rows are computed serially.
    """
    return Sweep(scenario, etas).rows()


def nj_divergence(scenario: Scenario, etas, table: Sweep | None = None) -> list[str]:
    """Flat-toll columns that differ across the scenario's jam levels, per eta.

    Each level's rows are those of the scenario with that one level.  Empty
    with fewer than two levels, and when the flat optimum sits at the top of
    the band, where the congested-branch terms vanish and the jam level drops
    out exactly.  ``table``, a :class:`Sweep` of these etas at every level
    already built (a sweep command's), is read instead of a new one, so each
    (eta, jam level) set is searched once.
    """
    levels = scenario.jam_accumulations
    if len(levels) < 2:
        return []
    table = table or Sweep(scenario, etas, levels)
    notes = []
    for eta in etas:
        at_levels = [table.row(eta, nj) for nj in levels]
        for name in _FLAT:
            values = [getattr(row, name) for row in at_levels]
            spread = max(values) - min(values)
            scale = max(abs(v) for v in values) or 1.0
            if spread > DIVERGENCE_REL_TOL * scale:
                notes.append(
                    f"eta={eta:g}: {name} varies across jam levels "
                    f"(spread {spread:.3e}, values {['%.6g' % v for v in values]})"
                )
    return notes


def write_csv(rows, path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row.csv_values())
