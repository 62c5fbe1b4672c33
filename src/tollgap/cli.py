"""Command-line front end: analyze, sweep, verify, crossover.

Exit codes: 0 success, 1 input/validation error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import bottleneck, mfd, sweep, verify
from .calibration import (
    BUILTIN_SCENARIOS,
    Scenario,
    ScenarioFormatError,
    builtin_scenario,
    load_scenario,
)
from .core import DomainError, ParameterError, Regime
from .search import bisect_root

__all__ = ["main", "static_ro_toll_dollars", "crossover_eta"]

CROSSOVER_WINDOW = (1.0, 30.0)  # eta range of the crossover root search


def _load(spec: str) -> Scenario:
    if spec in BUILTIN_SCENARIOS:
        return builtin_scenario(spec)
    return load_scenario(spec)


def _parse_eta_range(text: str) -> list[float]:
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise ScenarioFormatError(f"--eta-range expects lo:hi:n, got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ScenarioFormatError(f"--eta-range bounds must be finite, got {text!r}")
    if min(lo, hi) <= 0:
        raise ScenarioFormatError(f"--eta-range bounds must be positive, got {text!r}")
    if n < 1 or hi < lo:
        raise ScenarioFormatError("--eta-range needs hi >= lo and n >= 1")
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def static_ro_toll_dollars(
    scenario: Scenario, eta: float, jam_accumulation: float | None = None
) -> float:
    """Revenue-optimal flat toll at a given eta, converted to dollars."""
    params = scenario.params(eta)
    if scenario.is_mfd:
        toll, _ = mfd.static_revenue_optimal(params, scenario.mfd(jam_accumulation))
    else:
        toll, _ = bottleneck.static_revenue_optimal_toll(params)
    return float(toll) * scenario.value_of_time  # a Python float overflows to inf without a warning


def crossover_eta(scenario: Scenario, jam_accumulation: float | None = None) -> float | None:
    """Discomfort multiplier at which the flat optimum matches the live toll.

    Root of ``toll*(eta) * value_of_time - implemented_toll`` on
    :data:`CROSSOVER_WINDOW`, by bisection to 1e-10; None when no sign change
    exists in the window.  A zero implemented toll resolves to the eta at
    which the cost gap vanishes.
    """
    if scenario.implemented_toll is None:
        raise ParameterError(f"scenario {scenario.name!r} has no implemented toll to match")
    target = scenario.implemented_toll
    eta_lo, eta_hi = CROSSOVER_WINDOW

    if target == 0.0:
        # The optimal toll is zero for every eta with a nonpositive gap;
        # report the boundary where the gap (hence the toll) first vanishes.
        def gap_fn(eta: float) -> float:
            return scenario.params(eta).cost_gap

        if gap_fn(eta_lo) > 0:
            return eta_lo
        if gap_fn(eta_hi) < 0:
            return None
        return bisect_root(gap_fn, eta_lo, eta_hi, xtol=1e-10)

    def objective(eta: float) -> float:
        return static_ro_toll_dollars(scenario, eta, jam_accumulation) - target

    # Compare signs: the product of the two ends can overflow.
    f_lo, f_hi = objective(eta_lo), objective(eta_hi)
    if (f_lo > 0 and f_hi > 0) or (f_lo < 0 and f_hi < 0):
        return None
    return bisect_root(objective, eta_lo, eta_hi, xtol=1e-10)


def _fmt_money(hours: float, value_of_time: float) -> str:
    return f"{hours:.5f} h (${hours * value_of_time:.2f})"


def cmd_analyze(scenario: Scenario, eta: float, jam_accumulation: float | None) -> int:
    row = sweep.compute_row(scenario, eta, jam_accumulation)
    params = scenario.params(eta)
    vot = scenario.value_of_time
    print(f"scenario: {scenario.name}   eta = {eta:g}")
    print(
        f"  transit cost {params.transit_cost:.5f} h, car free-flow cost "
        f"{params.car_freeflow_cost:.5f} h, gap {params.cost_gap:.5f} h"
    )
    print(f"  regime: {row.regime.value}")
    if row.regime is Regime.ALL_TRANSIT:
        print("  all users take transit; revenue 0")
        return 0
    print(f"  static revenue-optimal toll : {_fmt_money(row.tau_static_ro, vot)}")
    print(f"  static cost-optimal toll    : {_fmt_money(row.tau_static_so, vot)}")
    print("  revenue (user-hours):")
    print(f"    static-RO  {row.rev_static_ro:16.2f}   ratio {row.rev_ratio(row.rev_static_ro):.5f}")
    print(f"    static-SO  {row.rev_static_so:16.2f}   ratio {row.rev_ratio(row.rev_static_so):.5f}")
    print(f"    dynamic-RO {row.rev_dynamic_ro:16.2f}   ratio 1.00000")
    print(f"    dynamic-SO {row.rev_dynamic_so:16.2f}   ratio {row.rev_ratio(row.rev_dynamic_so):.5f}")
    print("  system cost (user-hours):")
    print(f"    static-RO  {row.sc_static_ro:16.2f}   ratio {row.sc_ratio(row.sc_static_ro):.5f}")
    print(f"    static-SO  {row.sc_static_so:16.2f}   ratio {row.sc_ratio(row.sc_static_so):.5f}")
    print(f"    dynamic-RO {row.sc_dynamic_ro:16.2f}   ratio {row.sc_ratio(row.sc_dynamic_ro):.5f}")
    print(f"    minimum    {row.sc_opt:16.2f}   ratio 1.00000")
    if params.capacity < params.arrival_rate and params.cost_gap >= 0:
        report = bottleneck.performance_bounds(params)
        print("  guarantees:")
        print(f"    revenue ratio lower bound {report.revenue_ratio_lower_bound:.5f}")
        if report.sc_ratio_upper_bound is not None:
            print(f"    system-cost ratio upper bound {report.sc_ratio_upper_bound:.1f}")
        else:
            print("    system-cost ratio upper bound: none in this regime")
        if report.exact_sc_ratio is not None:
            print(f"    exact degenerate-corner cost ratio {report.exact_sc_ratio:.5f}")
    return 0


def cmd_sweep(
    scenario: Scenario, etas: list[float], out_path: str, jam_accumulation: float | None
) -> int:
    rows = sweep.compute_rows(scenario, etas, jam_accumulation)
    sweep.write_csv(rows, out_path)
    print(f"wrote {len(rows)} rows to {out_path}")
    if scenario.is_mfd and jam_accumulation is None:
        notes = sweep.nj_divergence(scenario, etas)
        if notes:
            print("jam-accumulation sweep divergence:")
            for note in notes:
                print(f"  {note}")
        else:
            print("jam-accumulation sweep: results identical across levels")
    return 0


def cmd_verify(scenario_spec: str, seed: int, cases: int) -> int:
    if scenario_spec != "random":
        verify.check_case_count(cases)  # unused by the scenario suite, but still validated
        results = [verify.scenario_suite(_load(scenario_spec))]
    else:
        results = verify.run_all_suites(seed=seed, n_cases=cases)
    failed = False
    for result in results:
        print(result.line())
        for failure in result.failures:
            print(f"    {failure}")
        failed = failed or not result.ok
    return 2 if failed else 0


def cmd_crossover(scenario: Scenario, jam_accumulation: float | None) -> int:
    eta = crossover_eta(scenario, jam_accumulation)
    # Compute the row before the first line, so that a failing call prints no report.
    row = None if eta is None else sweep.compute_row(scenario, eta, jam_accumulation)
    print(f"scenario: {scenario.name}")
    if scenario.implemented_toll is not None:
        print(f"  implemented flat toll: ${scenario.implemented_toll:.2f}")
    if row is None:
        lo, hi = CROSSOVER_WINDOW
        print(f"  no crossover in eta range [{lo:g}, {hi:g}]  (informational, not an error)")
        return 0
    print(f"  crossover eta: {eta:.4f}")
    print(f"  static-RO revenue ratio at crossover: {row.rev_ratio(row.rev_static_ro):.5f}")
    print(f"  static-RO system-cost ratio at crossover: {row.sc_ratio(row.sc_static_ro):.5f}")
    reference = scenario.crossover_reference_eta
    if reference is not None:
        print(f"  reference estimate for this corridor: eta = {reference:g}")
        if abs(reference - eta) > 0.05:
            print(
                "  note: computed crossover differs from the reference estimate; the"
                " crossover is sensitive to transit-time calibration details, so this"
                " figure is informational only"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tollgap",
        description="Flat vs trapezoid congestion-toll analysis for calibrated corridors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, scenario_required: bool = True) -> None:
        p.add_argument(
            "--scenario",
            required=scenario_required,
            help="builtin name (bay_bridge, nyc) or a scenario file path",
        )
        p.add_argument("--nj", type=float, default=None, help="jam-accumulation override, urban only")

    p_analyze = sub.add_parser("analyze", help="single-eta report for one scenario")
    add_common(p_analyze)
    p_analyze.add_argument("--eta", type=float, required=True, help="discomfort multiplier")

    p_sweep = sub.add_parser("sweep", help="CSV of policy metrics over an eta sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--eta-range", default=None, help="lo:hi:n uniform eta grid")
    p_sweep.add_argument("--out", required=True, help="output CSV path")

    p_verify = sub.add_parser("verify", help="closed forms vs the numeric oracle")
    p_verify.add_argument(
        "--scenario",
        default="random",
        help="'random' (default) for seeded random suites, or a builtin/file scenario",
    )
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--cases", type=int, default=1000)

    p_cross = sub.add_parser("crossover", help="eta at which the flat optimum matches the live toll")
    add_common(p_cross)
    return parser


# Inputs that overflow the model surface as a DomainError from the row guard
# in sweep.compute_row, so numpy's floating-point warnings would only precede
# that message.
@np.errstate(all="ignore")
def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.scenario, args.seed, args.cases)
        scenario = _load(args.scenario)
        if args.nj is not None and not scenario.is_mfd:
            raise ParameterError(
                f"--nj applies to urban scenarios only; {scenario.name!r} has a fixed capacity"
            )
        if args.command == "analyze":
            if not math.isfinite(args.eta):
                raise ParameterError(f"--eta must be finite, got {args.eta}")
            if args.eta <= 0:
                raise ParameterError(f"--eta must be positive, got {args.eta:g}")
            return cmd_analyze(scenario, args.eta, args.nj)
        if args.command == "sweep":
            etas = _parse_eta_range(args.eta_range) if args.eta_range else list(scenario.eta_sweep)
            return cmd_sweep(scenario, etas, args.out, args.nj)
        return cmd_crossover(scenario, args.nj)  # argparse admits no other command
    except (ScenarioFormatError, ParameterError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
