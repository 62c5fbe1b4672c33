"""Randomized verification suites: closed forms vs the numeric oracle.

Each suite draws seeded parameter sets, compares an algebraic result against
its independently computed counterpart (the exact trapezoid rule on the
bottleneck's linear segments, Gauss–Legendre quadrature on the urban
shoulders, exhaustive search), and reports the worst discrepancy seen.
A suite's report depends only on its arguments; the CLI ``verify`` command
and the acceptance tests both run them.

Each check is written once, for one parameter set, and returns ``(worst gap,
failure messages)`` with the messages tagged ``case 7`` or ``eta=2.5``; the
random and the scenario suites share the checks, and every guarantee is
checked under exactly the precondition ``bottleneck.performance_bounds`` states.
A suite is a stream of these outcomes, and one fold turns every stream into
its :class:`CheckResult`.  Each failure test reads ``not value <= bound`` (or
``>=``), so a NaN fails it.
"""

from __future__ import annotations

import dataclasses
import math
import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from . import bottleneck, mfd, oracle
from .core import BottleneckParams, ParameterError, Regime, regime_thresholds

__all__ = [
    "CheckResult",
    "sample_params",
    "sample_mfd",
    "oracle_agreement_suite",
    "optimizer_recovery_suite",
    "bound_property_suite",
    "mfd_agreement_suite",
    "scenario_suite",
    "check_case_count",
    "run_all_suites",
]


@dataclass
class CheckResult:
    """Outcome of one verification suite."""

    name: str
    ok: bool
    worst: float
    detail: str
    failures: list[str] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


_Outcome = tuple[float, list[str]]

REL_TOL = 1e-6  # bottleneck closed forms vs trapezoid quadrature, relative
QUAD_TOL = 1e-8  # urban revenue, queuing and schedule vs Gauss–Legendre quadrature, relative
# Floor (hours, times lam*max(z_T, 1)) of the bottleneck relative gap: where a
# component cancels to zero, such as transit N - n_car below the band, the
# oracle keeps rounding residue up to ~4e-10 user-hours; a 1e-9 h floor fails.
ORACLE_FLOOR = 1e-4
ARGMAX_GRID = 2000  # dense revenue grid that certifies the closed-form flat optimum


def _rel_gap(got: float, want: float, floor: float = 1e-12) -> float:
    return abs(got - want) / max(abs(want), floor)


def sample_params(rng: random.Random, regime: str | None = None) -> BottleneckParams:
    """Draw a valid congested parameter set (capacity < arrival rate, gap >= 0).

    ``regime`` may pin the cost gap into one of the three congested bands
    ("low", "mid", "high"); by default the three are drawn evenly.  Ranges
    keep the car-only peak wait within a few hours, as in the calibrated
    corridors.
    """
    arrival = 10 ** rng.uniform(2.0, 4.5)
    capacity = arrival * rng.uniform(0.15, 0.92)
    demand = arrival * rng.uniform(0.5, 5.0)
    early = rng.uniform(0.2, 0.9)
    late = rng.uniform(0.3, 3.5)
    car_cost = rng.uniform(0.0, 3.0)
    probe = BottleneckParams(demand, arrival, capacity, early, late, car_cost, car_cost)
    low, high = regime_thresholds(probe)
    choice = regime or rng.choice(["low", "mid", "high"])
    if choice == "low":
        gap = rng.uniform(0.0, low)
    elif choice == "mid":
        gap = rng.uniform(low, high)
    else:
        gap = rng.uniform(high, 2.5 * high)
    return BottleneckParams(demand, arrival, capacity, early, late, car_cost, car_cost + gap)


def sample_mfd(rng: random.Random, params: BottleneckParams) -> mfd.TriangularMfd:
    """Draw a triangular flow diagram compatible with the parameter set."""
    speed = rng.uniform(15.0, 60.0)
    distance = rng.uniform(2.0, 15.0)
    critical = params.capacity * distance / speed
    jam = critical * rng.uniform(1.5, 40.0)
    return mfd.TriangularMfd(
        max_throughput=params.capacity,
        jam_accumulation=jam,
        freeflow_speed=speed,
        trip_distance=distance,
    )


def _fold(
    name: str, detail: str, outcomes: Iterable[_Outcome], pick=max, start: float = 0.0
) -> CheckResult:
    """The one place a stream of ``(worst gap, failures)`` outcomes becomes a suite's result.

    ``pick`` folds the gaps from ``start``; ``detail`` may show the result as ``{worst}``.
    """
    worst = start
    failures: list[str] = []
    for gap, found in outcomes:
        worst = pick(worst, gap)
        failures += found
    return CheckResult(name, not failures, worst, detail.format(worst=worst), failures[:20])


def _check_oracle(params: BottleneckParams, toll: float, tag: str) -> _Outcome:
    """Revenue, the four cost components and ``n_transit`` at one toll vs quadrature."""
    outcome, sim_cost = oracle.static_bottleneck_costs(params, toll)
    closed_cost = bottleneck.static_system_cost(params, toll)
    closed_eq = bottleneck.static_equilibrium(params, toll)
    floor = ORACLE_FLOOR * params.arrival_rate * max(params.transit_cost, 1.0)
    pairs = [
        ("revenue", sim_cost.revenue, closed_cost.revenue),
        ("transit", sim_cost.transit, closed_cost.transit),
        ("car_freeflow", sim_cost.car_freeflow, closed_cost.car_freeflow),
        ("queuing", sim_cost.queuing, closed_cost.queuing),
        ("schedule", sim_cost.schedule, closed_cost.schedule),
        ("n_transit", outcome.n_transit, closed_eq.n_transit),
    ]
    worst = 0.0
    failures: list[str] = []
    for label, got, want in pairs:
        gap_ = _rel_gap(got, want, floor)
        worst = max(worst, gap_)
        if not gap_ <= REL_TOL:
            failures.append(f"{tag} toll={toll:.6g} {label}: oracle {got:.10g} vs closed {want:.10g}")
    return worst, failures


def _check_recovery(params: BottleneckParams, tag: str) -> _Outcome:
    """Grid search finds the flat-toll and trapezoid-fraction optima within one step.

    The worst gap is the flat argmax error minus the step (nonpositive on a pass).
    """
    failures: list[str] = []
    gap = params.cost_gap
    toll_star, rev_star = bottleneck.static_revenue_optimal_toll(params)
    toll_hat, rev_hat = oracle.grid_search_static(params)
    step = gap / (oracle.SEARCH_POINTS - 1) if gap > 0 else 0.0
    err = abs(toll_hat - toll_star)
    if not err <= step * 1.0000001:
        failures.append(f"{tag}: flat argmax {toll_hat:.8g} vs closed {toll_star:.8g}")
    # Grid revenue can never beat the closed-form optimum.
    if not rev_hat <= rev_star * (1 + 1e-9):
        failures.append(f"{tag}: grid revenue {rev_hat} exceeds optimum {rev_star}")

    design = bottleneck.dynamic_revenue_optimal(params)
    frac_hat, _ = oracle.grid_search_dynamic_fraction(params)
    f_lo = 1.0 - min(gap / bottleneck.max_wait_car_only(params), 1.0)
    f_step = (1.0 - f_lo) / (oracle.SEARCH_POINTS - 1)
    if not abs(frac_hat - design.flat_fraction) <= f_step * 1.0000001:
        failures.append(
            f"{tag}: fraction argmax {frac_hat:.8g} vs closed {design.flat_fraction:.8g}"
        )
    return err - step, failures


def _check_guarantees(params: BottleneckParams, tag: str) -> _Outcome:
    """Every performance guarantee that ``performance_bounds`` reports at one parameter set.

    Also certifies the closed-form flat optimum against a dense revenue grid
    (no grid point may beat it by more than the curve's Lipschitz constant
    times the grid step).  The worst gap is the revenue ratio's margin over
    its lower bound (infinite when the dynamic revenue is zero).
    """
    failures: list[str] = []
    report = bottleneck.performance_bounds(params)
    toll_star, rev_static = bottleneck.static_revenue_optimal_toll(params)
    design = bottleneck.dynamic_revenue_optimal(params)
    if not design.revenue >= rev_static * (1 - 1e-9):
        failures.append(f"{tag}: dynamic optimum below flat optimum")
    gap = params.cost_gap
    if gap > 0:
        grid = np.linspace(0.0, gap, ARGMAX_GRID)
        curve_max = float(oracle._static_revenue_curve(params, grid).max())
        mu, lam = params.capacity, params.arrival_rate
        lipschitz = max(
            params.total_demand,
            mu * params.total_demand / lam + 2.0 * mu * gap / params.schedule_factor,
        )
        slack = lipschitz * gap / (ARGMAX_GRID - 1) + 1e-9 * abs(rev_static)
        if not curve_max <= rev_static + slack:
            failures.append(
                f"{tag}: grid revenue {curve_max:.8g} beats closed optimum "
                f"{rev_static:.8g} beyond resolution slack"
            )
    margin = math.inf
    if design.revenue > 0:
        ratio = rev_static / design.revenue
        margin = ratio - report.revenue_ratio_lower_bound
        if not ratio >= report.revenue_ratio_lower_bound * (1 - 1e-9):
            failures.append(
                f"{tag}: revenue ratio {ratio:.6f} below bound "
                f"{report.revenue_ratio_lower_bound:.6f} ({report.regime.value})"
            )
        if not ratio >= 0.5 - 1e-9:
            failures.append(f"{tag}: revenue ratio {ratio:.6f} under the 1/2 floor")
    if report.sc_ratio_upper_bound is not None:
        cap = report.sc_ratio_upper_bound * bottleneck.optimal_system_cost(params) * (1 + 1e-9)
        if not bottleneck.static_system_cost(params, toll_star).total <= cap:
            failures.append(f"{tag}: flat-toll system cost beats 2x bound")
        if not design.system_cost <= cap:
            failures.append(f"{tag}: dynamic system cost beats 2x bound")
    if report.exact_sc_ratio is not None:
        flat_cost = bottleneck.static_system_cost(params, toll_star).total
        cost_ratio = flat_cost / bottleneck.optimal_system_cost(params)
        if not _rel_gap(cost_ratio, report.exact_sc_ratio) <= 1e-9:
            failures.append(
                f"{tag}: cost ratio {cost_ratio!r} vs exact corner ratio {report.exact_sc_ratio!r}"
            )
    return margin, failures


def _check_urban(
    params: BottleneckParams, net: mfd.TriangularMfd, toll: float, tag: str
) -> _Outcome:
    """Urban revenue, queuing and schedule at one toll vs quadrature; top-of-band guarantees.

    At the top of the band the wait is zero and the network runs as the
    bottleneck at mu_f, so the bottleneck guarantees apply under their own
    preconditions: the low-band revenue floor, and the factor-2 cost bound
    while the gap stays within the car-only peak wait.
    """
    numeric = oracle.integrate_mfd_revenue(params, net, toll)
    closed = mfd.static_revenue(params, net, toll)
    cost = mfd.static_system_cost(params, net, toll)
    q = oracle.mfd_shoulder_quadrature(params, net, toll)
    worst = 0.0
    failures: list[str] = []
    for label, got, want, floor in (
        ("urban revenue", numeric, closed, 1e-9 * params.total_demand),
        ("queuing", q["queue_early"] + q["queue_late"] + q["queue_flat"], cost.queuing, 1e-9),
        ("schedule", q["sched_early"] + q["sched_late"], cost.schedule, 1e-9),
    ):
        gap_ = _rel_gap(got, want, floor)
        worst = max(worst, gap_)
        if not gap_ <= QUAD_TOL:
            failures.append(f"{tag}: {label} quadrature gap {gap_:.3e}")

    report = bottleneck.performance_bounds(params)
    bench = mfd.dynamic_benchmarks(params, net)
    if report.regime is Regime.MIXED_LOW and bench.ro.revenue > 0:
        rev_at_gap = mfd.static_revenue(params, net, params.cost_gap)
        if not rev_at_gap >= report.revenue_ratio_lower_bound * bench.ro.revenue * (1 - 1e-9):
            failures.append(f"{tag}: top-of-band revenue under the guarantee floor")
    if report.sc_ratio_upper_bound is not None:
        sc_at_gap = mfd.static_system_cost(params, net, params.cost_gap).total
        if not sc_at_gap <= report.sc_ratio_upper_bound * bench.sc_opt * (1 + 1e-9):
            failures.append(f"{tag}: top-of-band system cost over the 2x guarantee")
    return worst, failures


def oracle_agreement_suite(seed: int, n_cases: int) -> CheckResult:
    """Closed-form revenue and every cost component vs trapezoid quadrature, two tolls a case."""
    rng = random.Random(seed)

    def outcomes() -> Iterator[_Outcome]:
        for case in range(n_cases):
            params = sample_params(rng)
            lo, hi = bottleneck.feasible_toll_band(params)
            tolls = [rng.uniform(0.0, hi), rng.uniform(0.0, hi)]
            if hi > 0:
                tolls[0] = rng.uniform(lo, hi)  # keep at least one toll in the mixed band
            for toll in tolls:
                yield _check_oracle(params, toll, f"case {case}")

    return _fold(
        "oracle agreement (trapezoid quadrature vs closed forms)",
        f"{n_cases} parameter sets, worst rel gap {{worst:.3e}}",
        outcomes(),
    )


def optimizer_recovery_suite(seed: int, n_cases: int) -> CheckResult:
    """Exhaustive grid search recovers both closed-form optima within one step."""
    rng = random.Random(seed)
    return _fold(
        "optimizer recovery (exhaustive search vs closed-form optima)",
        f"{n_cases} parameter sets, {oracle.SEARCH_POINTS}-point grids",
        (_check_recovery(sample_params(rng), f"case {case}") for case in range(n_cases)),
    )


def bound_property_suite(seed: int, n_cases: int) -> CheckResult:
    """Every stated performance guarantee, on random draws across all regimes.

    Also certifies the closed-form flat optimum against a dense revenue grid
    on every draw, and the exact cost ratio on draws in the degenerate corner.
    """
    rng = random.Random(seed)

    def outcomes() -> Iterator[_Outcome]:
        for case in range(n_cases):
            yield _check_guarantees(sample_params(rng), f"case {case}")
        # Degenerate-corner draws: zero car free-flow cost, gap beyond the
        # saturation threshold.  They do not feed the printed margin.
        for case in range(max(n_cases // 10, 10)):
            zero_car = dataclasses.replace(sample_params(rng), car_freeflow_cost=0.0, transit_cost=0.0)
            low, _ = regime_thresholds(zero_car)
            threshold = low * (2 * zero_car.arrival_rate - zero_car.capacity) / zero_car.capacity
            params = dataclasses.replace(zero_car, transit_cost=threshold * rng.uniform(1.01, 3.0))
            tag = f"exact-ratio case {case}"
            if bottleneck.performance_bounds(params).exact_sc_ratio is None:
                yield math.inf, [f"{tag}: exact corner ratio not reported"]
            yield math.inf, _check_guarantees(params, tag)[1]

    return _fold(
        "performance-bound properties (revenue floors, 2x cost bound, exact corner)",
        f"{n_cases} draws; smallest revenue-bound margin {{worst:.3e}}",
        outcomes(),
        pick=min,
        start=math.inf,
    )


def mfd_agreement_suite(seed: int, n_cases: int = 100) -> CheckResult:
    """Urban-network checks: log forms vs quadrature, limits, and guarantees."""
    rng = random.Random(seed)

    def outcomes() -> Iterator[_Outcome]:
        for case in range(n_cases):
            params = sample_params(rng, regime=rng.choice(["low", "mid"]))
            net = sample_mfd(rng, params)
            lo = mfd.static_lower_toll(params, net)
            hi = params.cost_gap
            if hi > lo:
                yield _check_urban(params, net, rng.uniform(lo, hi), f"case {case}")

        # Fixed-capacity limit: a huge jam accumulation reduces the log forms to
        # the bottleneck algebra with capacity = max throughput.  Its gaps are
        # held to a looser tolerance and do not feed the worst gap.
        rng_limit = random.Random(seed + 1)
        for case in range(20):
            params = sample_params(rng_limit, regime="low")
            net = mfd.TriangularMfd(
                max_throughput=params.capacity,
                jam_accumulation=1e9,
                freeflow_speed=30.0,
                trip_distance=5.0,
            )
            lo = max(mfd.static_lower_toll(params, net), bottleneck.feasible_toll_band(params)[0])
            hi = params.cost_gap
            if hi <= lo:
                continue
            for frac in (0.25, 0.6, 1.0):
                toll = lo + frac * (hi - lo)
                got = mfd.static_revenue(params, net, toll)
                want = bottleneck.static_revenue(params, toll)
                gap_ = _rel_gap(got, want, floor=1e-9)
                if not gap_ <= 1e-4:
                    yield 0.0, [f"limit case {case}: toll {toll:.4g} rel gap {gap_:.3e}"]

    return _fold(
        "urban-network agreement (log forms vs quadrature, limits, guarantees)",
        f"{n_cases} random triples, worst gap {{worst:.3e}}",
        outcomes(),
    )


def scenario_suite(scenario) -> CheckResult:
    """Deterministic checks along a calibrated scenario's eta sweep.

    At every sweep point the random suites' checks run: oracle vs closed
    forms at three tolls, optimum recovery by grid search, every performance
    guarantee, and (for urban scenarios) the urban check mid-band.
    """

    def outcomes() -> Iterator[_Outcome]:
        for eta in scenario.eta_sweep:
            params = scenario.params(eta)
            gap = params.cost_gap
            if gap < 0 or params.capacity >= params.arrival_rate:
                continue
            tag = f"eta={eta:g}"
            for frac in (0.0, 0.5, 1.0):
                yield _check_oracle(params, frac * gap, tag)
            # Recovery and guarantee gaps are not relative gaps: only their failures count.
            yield 0.0, _check_recovery(params, tag)[1]
            yield 0.0, _check_guarantees(params, tag)[1]
            if scenario.is_mfd:
                net = scenario.mfd()
                lo = mfd.static_lower_toll(params, net)
                if gap > lo:
                    yield _check_urban(params, net, lo + 0.5 * (gap - lo), tag)

    return _fold(
        f"scenario suite ({scenario.name})",
        f"{len(scenario.eta_sweep)} sweep points, worst rel gap {{worst:.3e}}",
        outcomes(),
    )


def check_case_count(n_cases: int) -> None:
    """Reject a negative number of cases with :class:`ParameterError`."""
    if n_cases < 0:
        raise ParameterError(f"the number of cases must be nonnegative, got {n_cases}")


def run_all_suites(seed: int = 42, n_cases: int = 1000) -> list[CheckResult]:
    """Everything the ``verify`` command runs, in a deterministic order.

    Zero cases is a vacuous pass with a warning; a negative count is rejected.
    """
    check_case_count(n_cases)
    if n_cases == 0:
        vacuous = "0 cases requested: vacuous pass (warning: nothing was checked)"
        return [_fold("verification", vacuous, ())]
    return [
        oracle_agreement_suite(seed, n_cases),
        optimizer_recovery_suite(seed + 1, max(n_cases // 2, 1)),
        bound_property_suite(seed + 2, n_cases * 10),
        mfd_agreement_suite(seed + 3, max(n_cases // 10, 1)),
    ]
