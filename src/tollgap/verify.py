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
"""

from __future__ import annotations

import dataclasses
import math
import random
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
        if gap_ > REL_TOL:
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
    if err > step * 1.0000001:
        failures.append(f"{tag}: flat argmax {toll_hat:.8g} vs closed {toll_star:.8g}")
    # Grid revenue can never beat the closed-form optimum.
    if rev_hat > rev_star * (1 + 1e-9):
        failures.append(f"{tag}: grid revenue {rev_hat} exceeds optimum {rev_star}")

    design = bottleneck.dynamic_revenue_optimal(params)
    frac_hat, _ = oracle.grid_search_dynamic_fraction(params)
    f_lo = 1.0 - min(gap / bottleneck.max_wait_car_only(params), 1.0)
    f_step = (1.0 - f_lo) / (oracle.SEARCH_POINTS - 1)
    if abs(frac_hat - design.flat_fraction) > f_step * 1.0000001:
        failures.append(
            f"{tag}: fraction argmax {frac_hat:.8g} vs closed {design.flat_fraction:.8g}"
        )
    return err - step, failures


def _check_guarantees(params: BottleneckParams, tag: str) -> _Outcome:
    """Every stated performance guarantee at one parameter set.

    Also certifies the closed-form flat optimum against a dense revenue grid
    (no grid point may beat it by more than the curve's Lipschitz constant
    times the grid step).  The worst gap is the revenue ratio's margin over
    its lower bound (infinite when the dynamic revenue is zero).
    """
    failures: list[str] = []
    report = bottleneck.performance_bounds(params)
    toll_star, rev_static = bottleneck.static_revenue_optimal_toll(params)
    design = bottleneck.dynamic_revenue_optimal(params)
    if design.revenue < rev_static * (1 - 1e-9):
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
        if curve_max > rev_static + slack:
            failures.append(
                f"{tag}: grid revenue {curve_max:.8g} beats closed optimum "
                f"{rev_static:.8g} beyond resolution slack"
            )
    margin = math.inf
    if design.revenue > 0:
        ratio = rev_static / design.revenue
        margin = ratio - report.revenue_ratio_lower_bound
        if ratio < report.revenue_ratio_lower_bound * (1 - 1e-9):
            failures.append(
                f"{tag}: revenue ratio {ratio:.6f} below bound "
                f"{report.revenue_ratio_lower_bound:.6f} ({report.regime.value})"
            )
        if ratio < 0.5 - 1e-9:
            failures.append(f"{tag}: revenue ratio {ratio:.6f} under the 1/2 floor")
    if report.sc_ratio_upper_bound is not None:
        cap = report.sc_ratio_upper_bound * bottleneck.optimal_system_cost(params) * (1 + 1e-9)
        if bottleneck.static_system_cost(params, toll_star).total > cap:
            failures.append(f"{tag}: flat-toll system cost beats 2x bound")
        if design.system_cost > cap:
            failures.append(f"{tag}: dynamic system cost beats 2x bound")
    return margin, failures


def _check_urban_revenue(
    params: BottleneckParams, net: mfd.TriangularMfd, toll: float, tag: str
) -> _Outcome:
    """Log-form urban revenue at one toll vs Gauss–Legendre quadrature."""
    numeric = oracle.integrate_mfd_revenue(params, net, toll)
    closed = mfd.static_revenue(params, net, toll)
    gap_ = _rel_gap(numeric, closed, floor=1e-9 * params.total_demand)
    return gap_, [f"{tag}: urban revenue quadrature gap {gap_:.3e}"] if gap_ > QUAD_TOL else []


def oracle_agreement_suite(seed: int, n_cases: int) -> CheckResult:
    """Closed-form revenue and every cost component vs trapezoid quadrature, two tolls a case."""
    rng = random.Random(seed)
    worst = 0.0
    failures: list[str] = []
    for case in range(n_cases):
        params = sample_params(rng)
        lo, hi = bottleneck.feasible_toll_band(params)
        tolls = [rng.uniform(0.0, hi), rng.uniform(0.0, hi)]
        if hi > 0:
            tolls[0] = rng.uniform(lo, hi)  # keep at least one toll in the mixed band
        for toll in tolls:
            gap_, found = _check_oracle(params, toll, f"case {case}")
            worst = max(worst, gap_)
            failures += found
    return CheckResult(
        name="oracle agreement (trapezoid quadrature vs closed forms)",
        ok=not failures,
        worst=worst,
        detail=f"{n_cases} parameter sets, worst rel gap {worst:.3e}",
        failures=failures[:20],
    )


def optimizer_recovery_suite(seed: int, n_cases: int) -> CheckResult:
    """Exhaustive grid search recovers both closed-form optima within one step."""
    rng = random.Random(seed)
    worst = 0.0
    failures: list[str] = []
    for case in range(n_cases):
        excess, found = _check_recovery(sample_params(rng), f"case {case}")
        worst = max(worst, excess)
        failures += found
    return CheckResult(
        name="optimizer recovery (exhaustive search vs closed-form optima)",
        ok=not failures,
        worst=worst,
        detail=f"{n_cases} parameter sets, {oracle.SEARCH_POINTS}-point grids",
        failures=failures[:20],
    )


def bound_property_suite(seed: int, n_cases: int) -> CheckResult:
    """Every stated performance guarantee, on random draws across all regimes.

    Also certifies the closed-form flat optimum against a dense revenue grid
    on every draw, and the exact cost ratio in the degenerate corner.
    """
    rng = random.Random(seed)
    failures: list[str] = []
    worst_margin = math.inf
    for case in range(n_cases):
        margin, found = _check_guarantees(sample_params(rng), f"case {case}")
        worst_margin = min(worst_margin, margin)
        failures += found

    # Exact degenerate-corner ratio: zero car free-flow cost, gap beyond the
    # saturation threshold.
    for case in range(max(n_cases // 10, 10)):
        zero_car = dataclasses.replace(sample_params(rng), car_freeflow_cost=0.0, transit_cost=0.0)
        low, _ = regime_thresholds(zero_car)
        threshold = low * (2 * zero_car.arrival_rate - zero_car.capacity) / zero_car.capacity
        params = dataclasses.replace(zero_car, transit_cost=threshold * rng.uniform(1.01, 3.0))
        report = bottleneck.performance_bounds(params)
        toll_star, _ = bottleneck.static_revenue_optimal_toll(params)
        got = bottleneck.static_system_cost(params, toll_star).total / bottleneck.optimal_system_cost(
            params
        )
        want = 1.0 + 1.0 / (1.0 - params.capacity / params.arrival_rate)
        if report.exact_sc_ratio is None or _rel_gap(got, want) > 1e-9:
            failures.append(f"exact-ratio case {case}: got {got!r} want {want!r}")
    return CheckResult(
        name="performance-bound properties (revenue floors, 2x cost bound, exact corner)",
        ok=not failures,
        worst=worst_margin,
        detail=f"{n_cases} draws; smallest revenue-bound margin {worst_margin:.3e}",
        failures=failures[:20],
    )


def mfd_agreement_suite(seed: int, n_cases: int = 100) -> CheckResult:
    """Urban-network checks: log forms vs quadrature, limits, and guarantees."""
    rng = random.Random(seed)
    failures: list[str] = []
    worst = 0.0
    for case in range(n_cases):
        params = sample_params(rng, regime=rng.choice(["low", "mid"]))
        net = sample_mfd(rng, params)
        lo = mfd.static_lower_toll(params, net)
        hi = params.cost_gap
        if hi <= lo:
            continue
        toll = rng.uniform(lo, hi)
        gap_, found = _check_urban_revenue(params, net, toll, f"case {case}")
        worst = max(worst, gap_)
        failures += found

        cost = mfd.static_system_cost(params, net, toll)
        q = oracle.mfd_shoulder_quadrature(params, net, toll)
        for label, got, want in (
            ("queuing", q["queue_early"] + q["queue_late"] + q["queue_flat"], cost.queuing),
            ("schedule", q["sched_early"] + q["sched_late"], cost.schedule),
        ):
            gap_ = _rel_gap(got, want, floor=1e-9)
            worst = max(worst, gap_)
            if gap_ > QUAD_TOL:
                failures.append(f"case {case}: {label} quadrature gap {gap_:.3e}")

        # At the top of the band the wait is zero and the network runs as the
        # bottleneck at mu_f, so the bottleneck guarantees apply under their
        # own preconditions: the low-band revenue floor, and the factor-2
        # cost bound while the gap stays within the car-only peak wait.
        report = bottleneck.performance_bounds(params)
        bench = mfd.dynamic_benchmarks(params, net)
        if report.regime is Regime.MIXED_LOW and bench.ro.revenue > 0:
            rev_at_gap = mfd.static_revenue(params, net, params.cost_gap)
            if rev_at_gap < report.revenue_ratio_lower_bound * bench.ro.revenue * (1 - 1e-9):
                failures.append(f"case {case}: top-of-band revenue under the guarantee floor")
        if report.sc_ratio_upper_bound is not None:
            sc_at_gap = mfd.static_system_cost(params, net, params.cost_gap).total
            if sc_at_gap > report.sc_ratio_upper_bound * bench.sc_opt * (1 + 1e-9):
                failures.append(f"case {case}: top-of-band system cost over the 2x guarantee")

    # Fixed-capacity limit: a huge jam accumulation reduces the log forms to
    # the bottleneck algebra with capacity = max throughput.
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
            if gap_ > 1e-4:
                failures.append(f"limit case {case}: toll {toll:.4g} rel gap {gap_:.3e}")
    return CheckResult(
        name="urban-network agreement (log forms vs quadrature, limits, guarantees)",
        ok=not failures,
        worst=worst,
        detail=f"{n_cases} random triples, worst gap {worst:.3e}",
        failures=failures[:20],
    )


def scenario_suite(scenario) -> CheckResult:
    """Deterministic checks along a calibrated scenario's eta sweep.

    At every sweep point the random suites' checks run: oracle vs closed
    forms at three tolls, optimum recovery by grid search, every performance
    guarantee, and (for urban scenarios) the log-form revenue against
    quadrature.
    """
    failures: list[str] = []
    worst = 0.0
    for eta in scenario.eta_sweep:
        params = scenario.params(eta)
        gap = params.cost_gap
        if gap < 0 or params.capacity >= params.arrival_rate:
            continue
        tag = f"eta={eta:g}"
        for frac in (0.0, 0.5, 1.0):
            gap_, found = _check_oracle(params, frac * gap, tag)
            worst = max(worst, gap_)
            failures += found
        failures += _check_recovery(params, tag)[1]
        failures += _check_guarantees(params, tag)[1]
        if scenario.is_mfd:
            net = scenario.mfd()
            lo = mfd.static_lower_toll(params, net)
            if gap > lo:
                gap_, found = _check_urban_revenue(params, net, lo + 0.5 * (gap - lo), tag)
                worst = max(worst, gap_)
                failures += found
    return CheckResult(
        name=f"scenario suite ({scenario.name})",
        ok=not failures,
        worst=worst,
        detail=f"{len(scenario.eta_sweep)} sweep points, worst rel gap {worst:.3e}",
        failures=failures[:20],
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
        return [
            CheckResult(
                name="verification",
                ok=True,
                worst=0.0,
                detail="0 cases requested: vacuous pass (warning: nothing was checked)",
            )
        ]
    return [
        oracle_agreement_suite(seed, n_cases),
        optimizer_recovery_suite(seed + 1, max(n_cases // 2, 1)),
        bound_property_suite(seed + 2, n_cases * 10),
        mfd_agreement_suite(seed + 3, max(n_cases // 10, 1)),
    ]
