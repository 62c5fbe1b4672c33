"""Command-line front end: analyze, sweep, verify, crossover.

Exit codes: 0 success (``--help`` too), 1 input/validation error (a usage
error included), 2 verification failure.
"""

from __future__ import annotations

import os

# Before numpy loads: no call here gains from BLAS threads, and starting them costs time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import dataclasses
import math
import sys
import warnings
from typing import NoReturn

from . import bottleneck, sweep
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
LISTED_FAILURES = 20  # failure messages printed per verify suite; the total follows any more


def _load(spec: str) -> Scenario:
    if spec in BUILTIN_SCENARIOS:
        return builtin_scenario(spec)
    return load_scenario(spec)


def _with_nj(scenario: Scenario, nj: float) -> Scenario:
    """``scenario`` with ``--nj`` as its one jam level; a level it cannot take names the flag."""
    if not scenario.is_mfd:
        raise ParameterError(
            f"--nj applies to urban scenarios only; {scenario.name!r} has a fixed capacity,"
            f" got {nj:g}"
        )
    scenario = dataclasses.replace(scenario, jam_accumulations=(nj,))
    try:
        scenario.mfd()
    except ParameterError as exc:
        raise ParameterError(f"--nj: {exc}, got {nj:g}") from exc
    return scenario


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


def static_ro_toll_dollars(scenario: Scenario, eta: float) -> float:
    """Revenue-optimal flat toll at a given eta, converted to dollars.

    Raises the sweep row's :class:`DomainError` when the optimum's revenue
    is not a finite nonnegative number: the inputs overflow the model, and
    its toll is no result.
    """
    params = scenario.params(eta)
    if scenario.is_mfd:
        from . import mfd  # deferred: see the note above main

        toll, cost = mfd.static_revenue_optimal(params, scenario.mfd())
    else:
        toll, cost = bottleneck.static_revenue_optimal_toll(params)
    sweep._require_in_range(scenario, eta, [("rev_static_ro", cost.revenue)])
    return float(toll) * scenario.value_of_time  # a Python float overflows to inf without a warning


def crossover_eta(scenario: Scenario) -> float | None:
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
        return bisect_root(gap_fn, eta_lo, eta_hi, xtol=1e-10)

    def objective(eta: float) -> float:
        return static_ro_toll_dollars(scenario, eta) - target

    return bisect_root(objective, eta_lo, eta_hi, xtol=1e-10)


_GOALS = {"ro": "revenue-optimal", "so": "cost-optimal"}  # tau_static_ro -> static revenue-optimal toll


def _policy(name: str) -> str:
    """Report label of a revenue or cost field: rev_static_ro -> static-RO, sc_opt -> minimum."""
    kind, _, goal = name.split("_", 1)[1].partition("_")
    return f"{kind}-{goal.upper()}" if goal else "minimum"


def cmd_analyze(scenario: Scenario, eta: float) -> int:
    row = sweep.compute_row(scenario, eta)
    params = scenario.params(eta)
    print(f"scenario: {scenario.name}   eta = {eta:g}")
    print(
        f"  transit cost {params.transit_cost:.5f} h, car free-flow cost "
        f"{params.car_freeflow_cost:.5f} h, gap {params.cost_gap:.5f} h"
    )
    print(f"  regime: {row.regime.value}")
    if row.regime is Regime.ALL_TRANSIT:
        print("  all users take transit; revenue 0")
        return 0
    for name in sweep.TOLLS:
        _, kind, goal = name.split("_")
        label = f"{kind} {_GOALS[goal]} toll"
        hours = getattr(row, name)
        print(f"  {label:27} : {hours:.5f} h (${hours * scenario.value_of_time:.2f})")
    for title, names in (("revenue", sweep.REVENUES), ("system cost", sweep.COSTS)):
        print(f"  {title} (user-hours):")
        for name in names:
            print(f"    {_policy(name):10} {getattr(row, name):16.2f}   ratio {row.ratio(name):.5f}")
    if params.capacity < params.arrival_rate and params.cost_gap >= 0:
        if scenario.is_mfd:
            from . import mfd  # deferred: see the note above main

            report = mfd.guarantees(params, scenario.mfd())
            print("  guarantees: at toll = gap (urban network)")
        else:
            report = bottleneck.performance_bounds(params)
            print("  guarantees:")
        for label, bound, spec in (
            ("revenue ratio lower bound", report.revenue_ratio_lower_bound, ".5f"),
            ("system-cost ratio upper bound", report.sc_ratio_upper_bound, ".1f"),
        ):
            print(f"    {label}: none in this regime" if bound is None else f"    {label} {bound:{spec}}")
        if report.exact_sc_ratio is not None:
            print(f"    exact degenerate-corner cost ratio {report.exact_sc_ratio:.5f}")
    return 0


def cmd_sweep(scenario: Scenario, etas: list[float], out_path: str) -> int:
    # One table for the CSV and the divergence check: one search of every (eta, jam level) set.
    table = sweep.Sweep(scenario, etas, scenario.jam_accumulations)
    rows = table.rows()
    sweep.write_csv(rows, out_path)
    print(f"wrote {len(rows)} rows to {out_path}")
    if len(scenario.jam_accumulations) > 1:
        notes = sweep.nj_divergence(scenario, etas, table)
        if notes:
            print("jam-accumulation sweep divergence:")
            for note in notes:
                print(f"  {note}")
        else:
            print("jam-accumulation sweep: results identical across levels")
    return 0


def cmd_verify(scenario_spec: str, seed: int | None, cases: int | None) -> int:
    """Run the random suites (``seed`` and ``cases`` as given, else their defaults) or a scenario's."""
    from . import verify  # deferred: see the note above main

    if scenario_spec == "random":
        given = {name: value for name, value in (("seed", seed), ("n_cases", cases)) if value is not None}
        results = verify.run_all_suites(**given)
    else:
        if cases is not None:
            verify.check_case_count(cases)  # a negative count gets the random suites' message
        for flag, value in (("--seed", seed), ("--cases", cases)):
            if value is not None:
                raise ParameterError(
                    f"{flag} applies to the random suites only; the {scenario_spec!r} scenario"
                    f" suite checks a fixed sweep, got {value}"
                )
        results = [verify.scenario_suite(_load(scenario_spec))]
    failed = False
    for result in results:
        print(result.line())
        for failure in result.failures[:LISTED_FAILURES]:
            print(f"    {failure}")
        if len(result.failures) > LISTED_FAILURES:
            total = len(result.failures)
            print(f"    ... {total} failures in all; the first {LISTED_FAILURES} are listed above")
        failed = failed or not result.ok
    return 2 if failed else 0


def cmd_crossover(scenario: Scenario) -> int:
    eta = crossover_eta(scenario)
    # Compute the row before the first line, so that a failing call prints no report.
    row = None if eta is None else sweep.compute_row(scenario, eta)
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


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with a usage error exiting 1 as every other input error does.

    Subparsers are built from the same class, so their errors exit 1 too.
    """

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tollgap",
        description="Flat vs trapezoid congestion-toll analysis for calibrated corridors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--scenario",
            required=True,
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
    p_verify.add_argument("--seed", type=int, help="seed of the random suites (default 42)")
    p_verify.add_argument("--cases", type=int, help="cases of the random suites (default 1000)")

    p_cross = sub.add_parser("crossover", help="eta at which the flat optimum matches the live toll")
    add_common(p_cross)
    return parser


# numpy loads only where it is used: mfd for a scenario with a flow diagram,
# and verify.  analyze, crossover and sweep on a fixed-capacity scenario run on
# the standard library alone.  Inputs that overflow the model surface as a
# DomainError from the row guard in sweep.Sweep.row, so numpy's
# floating-point RuntimeWarnings would only precede that message.
def main(argv: list[str] | None = None) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        parser = build_parser()
        args = parser.parse_args(argv)
        try:
            if args.command == "verify":
                return cmd_verify(args.scenario, args.seed, args.cases)
            scenario = _load(args.scenario)
            if args.nj is not None:
                scenario = _with_nj(scenario, args.nj)
            if args.command == "analyze":
                if not math.isfinite(args.eta):
                    raise ParameterError(f"--eta must be finite, got {args.eta}")
                if args.eta <= 0:
                    raise ParameterError(f"--eta must be positive, got {args.eta:g}")
                return cmd_analyze(scenario, args.eta)
            if args.command == "sweep":
                etas = (
                    _parse_eta_range(args.eta_range) if args.eta_range else list(scenario.eta_sweep)
                )
                return cmd_sweep(scenario, etas, args.out)
            return cmd_crossover(scenario)  # argparse admits no other command
        except (ScenarioFormatError, ParameterError, DomainError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
