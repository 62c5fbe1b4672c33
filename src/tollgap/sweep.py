"""Discomfort-multiplier sweeps: one row of policy metrics per eta value.

Rows are computed one eta at a time and written in eta order with a fixed
8-decimal format, so identical inputs produce byte-identical CSV output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

from . import bottleneck
from .calibration import Scenario
from .core import DomainError, Regime, classify_regime

__all__ = ["SweepRow", "CSV_HEADER", "compute_row", "compute_rows", "write_csv", "nj_divergence"]

DIVERGENCE_REL_TOL = 1e-9  # spread, relative to the largest value, that nj_divergence reports

CSV_HEADER = (
    "eta",
    "regime",
    "tau_static_ro_hours",
    "tau_static_ro_dollars",
    "tau_static_so_hours",
    "tau_static_so_dollars",
    "rev_static_ro",
    "rev_static_so",
    "rev_dynamic_ro",
    "rev_dynamic_so",
    "sc_static_ro",
    "sc_static_so",
    "sc_dynamic_ro",
    "sc_opt",
    "rev_ratio_static_ro",
    "rev_ratio_static_so",
    "rev_ratio_dynamic_ro",
    "rev_ratio_dynamic_so",
    "sc_ratio_static_ro",
    "sc_ratio_static_so",
    "sc_ratio_dynamic_ro",
    "sc_ratio_opt",
)


@dataclass(frozen=True)
class SweepRow:
    """All policy metrics at one discomfort multiplier.

    Revenues and system costs are user-hours; ratio columns are normalized
    by the dynamic revenue optimum and the minimum system cost respectively,
    so revenue ratios never exceed 1 and cost ratios never drop below 1.
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

    def csv_values(self) -> tuple[str, ...]:
        def fmt(x: float) -> str:
            return f"{x:.8f}"

        return (
            fmt(self.eta),
            self.regime.value,
            fmt(self.tau_static_ro),
            fmt(self.tau_static_ro * self.value_of_time),
            fmt(self.tau_static_so),
            fmt(self.tau_static_so * self.value_of_time),
            fmt(self.rev_static_ro),
            fmt(self.rev_static_so),
            fmt(self.rev_dynamic_ro),
            fmt(self.rev_dynamic_so),
            fmt(self.sc_static_ro),
            fmt(self.sc_static_so),
            fmt(self.sc_dynamic_ro),
            fmt(self.sc_opt),
            fmt(self.rev_ratio(self.rev_static_ro)),
            fmt(self.rev_ratio(self.rev_static_so)),
            fmt(self.rev_ratio(self.rev_dynamic_ro)),
            fmt(self.rev_ratio(self.rev_dynamic_so)),
            fmt(self.sc_ratio(self.sc_static_ro)),
            fmt(self.sc_ratio(self.sc_static_so)),
            fmt(self.sc_ratio(self.sc_dynamic_ro)),
            fmt(self.sc_ratio(self.sc_opt)),
        )


def compute_row(scenario: Scenario, eta: float, jam_accumulation: float | None = None) -> SweepRow:
    """Evaluate all four policies at one discomfort multiplier.

    Raises :class:`DomainError` naming the field when a number in the row, or
    a toll in dollars, is not finite or is negative: finite but huge inputs
    (a demand or a jam accumulation of 1e300) overflow the formulas, and
    such a row is no result.
    """
    params = scenario.params(eta)
    regime = classify_regime(params)
    if regime is Regime.ALL_TRANSIT:
        # Transit dominates outright: no policy collects revenue or changes cost.
        cost = params.transit_cost * params.total_demand
        numbers = (0.0,) * 6 + (cost,) * 4
    else:
        if scenario.is_mfd:
            from . import mfd  # deferred: fixed-capacity rows never load numpy

            net = scenario.mfd(jam_accumulation)
            tau_ro, rev_ro = mfd.static_revenue_optimal(params, net)
            tau_so, sc_so = mfd.static_sc_optimal(params, net)
            sc_ro = mfd.static_system_cost(params, net, tau_ro).total
            rev_so = mfd.static_revenue(params, net, tau_so)
        else:
            tau_ro, rev_ro = bottleneck.static_revenue_optimal_toll(params)
            tau_so, sc_so = bottleneck.static_sc_optimal_toll(params)
            sc_ro = bottleneck.static_system_cost(params, tau_ro).total
            rev_so = bottleneck.static_revenue(params, tau_so)
        # The trapezoid schedules hold an urban network at its critical
        # accumulation, and the params carry its maximum throughput as capacity.
        dyn_ro = bottleneck.dynamic_revenue_optimal(params)
        dyn_so = bottleneck.dynamic_so_design(params)
        numbers = (tau_ro, tau_so, rev_ro, rev_so, dyn_ro.revenue, dyn_so.revenue)
        numbers += (sc_ro, sc_so, dyn_ro.system_cost, dyn_so.system_cost)
    # ``numbers`` follows SweepRow's field order: two tolls, four revenues, four costs.
    row = SweepRow(eta, regime, *numbers, value_of_time=scenario.value_of_time)
    checked = [(f.name, getattr(row, f.name)) for f in fields(row)[2:]]  # after eta and regime
    for name in ("tau_static_ro", "tau_static_so"):
        checked.append((f"{name}_dollars", float(getattr(row, name)) * row.value_of_time))
    for name, value in checked:
        if not (math.isfinite(value) and value >= 0):
            raise DomainError(
                f"scenario {scenario.name!r} at eta={eta:g}: {name} = {value:g} is out of range"
                " (the inputs overflow the model)"
            )
    return row


def compute_rows(
    scenario: Scenario,
    etas,
    jam_accumulation: float | None = None,
    max_workers: int | None = None,
) -> list[SweepRow]:
    """Rows for every eta, in eta order.

    ``max_workers`` is accepted and ignored: rows are computed serially.
    """
    return [compute_row(scenario, eta, jam_accumulation) for eta in sorted(etas)]


def nj_divergence(scenario: Scenario, etas) -> list[str]:
    """Columns that differ across the jam-accumulation sweep, per eta.

    Empty when the flat optimum sits at the top of the band, where the
    congested-branch terms vanish and the jam level drops out exactly.
    """
    return _nj_divergence(scenario, etas, ())


def _nj_divergence(scenario: Scenario, etas, default_rows) -> list[str]:
    """:func:`nj_divergence`, reusing ``default_rows`` at the default jam level.

    A default sweep has already computed those rows for its CSV; reusing them
    computes each (eta, jam level) row once.
    """
    if not scenario.is_mfd or len(scenario.jam_accumulations) < 2:
        return []
    notes = []
    numeric_fields = (
        "tau_static_ro",
        "tau_static_so",
        "rev_static_ro",
        "rev_static_so",
        "sc_static_ro",
        "sc_static_so",
    )
    known = {row.eta: row for row in default_rows}
    default = scenario.default_jam_accumulation
    for eta in etas:
        rows = [
            known[eta] if nj == default and eta in known else compute_row(scenario, eta, nj)
            for nj in scenario.jam_accumulations
        ]
        for field_name in numeric_fields:
            values = [getattr(r, field_name) for r in rows]
            spread = max(values) - min(values)
            scale = max(abs(v) for v in values) or 1.0
            if spread > DIVERGENCE_REL_TOL * scale:
                notes.append(
                    f"eta={eta:g}: {field_name} varies across jam levels "
                    f"(spread {spread:.3e}, values {['%.6g' % v for v in values]})"
                )
    return notes


def write_csv(rows, path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row.csv_values())
