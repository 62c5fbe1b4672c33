"""Randomized verification suites: closed forms vs the numeric oracle.

Each suite draws seeded parameter sets, compares an algebraic result against
its independently computed counterpart (the exact trapezoid rule on the
bottleneck's linear segments, Gauss–Legendre quadrature on the urban
shoulders, exhaustive search), and reports the worst discrepancy seen.
A suite's report depends only on its arguments; the CLI ``verify`` command
and the acceptance tests both run them.

Each check is written once and returns ``(worst gap, failure messages)``
with the messages tagged ``case 7`` or ``eta=2.5``; the random and the
scenario suites share the checks, and every guarantee is checked under
exactly the precondition ``performance_bounds`` or ``mfd.guarantees`` states.
The guarantee check takes a block of parameter sets at once (``BLOCK`` random
draws, or a scenario's whole sweep) and builds messages only for the sets
that fail, set by set in the order of its checks.
A suite is a stream of these outcomes, and one fold turns every stream into
its :class:`CheckResult`.  Each failure test reads ``not value <= bound`` (or
``>=``), so a NaN fails it, and every fold of gaps keeps a NaN, so it shows as
the suite's printed worst gap.
"""

from __future__ import annotations

import dataclasses
import math
import random
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import bottleneck, mfd, oracle
from .core import BottleneckParams, ParameterError, ParamsBlock, clamp, regime_thresholds

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
_Check = tuple[np.ndarray, Callable[[int], str]]  # which sets of a block fail, and set i's message

REL_TOL = 1e-6  # bottleneck closed forms vs trapezoid quadrature, relative
QUAD_TOL = 1e-8  # urban revenue and the four cost pieces vs Gauss–Legendre quadrature, relative
# Floor (hours, times lam*max(z_T, 1)) of the bottleneck and urban transit/car relative gaps: where
# a piece cancels to zero, such as transit N - n_car below the bottleneck band, the oracle
# keeps rounding residue up to ~4e-10 user-hours; a 1e-9 h floor fails.
ORACLE_FLOOR = 1e-4
ARGMAX_GRID = 2000  # dense revenue grid that certifies the closed-form flat optimum
GRID_ROWS = 16  # parameter sets whose dense revenue grids are evaluated at once (16 x 2000 floats)
BLOCK = 512  # random draws stacked into one block of the guarantee check
LIMIT_JAM = 1e15  # jam accumulation of the urban suite's fixed-capacity limit draws
LIMIT_TOL = 1e-9  # urban revenue, queuing and schedule vs the bottleneck at LIMIT_JAM, relative
_PIECES = ("revenue", "transit", "car_freeflow", "queuing", "schedule")  # of a CostBreakdown


def _rel_gap(got: float, want: float, floor: float = 1e-12) -> float:
    return abs(got - want) / clamp(abs(want), floor)


def _oracle_floor(params: BottleneckParams) -> float:
    """Floor of a cost piece's relative gap: ``ORACLE_FLOOR * lam * max(z_T, 1)``."""
    return ORACLE_FLOOR * params.arrival_rate * max(params.transit_cost, 1.0)


def _pieces(got, want, floors: dict[str, float]) -> list[tuple]:
    """``(label, got.label, want.label, floor)`` for each ``label: floor`` of ``floors``."""
    return [(key, getattr(got, key), getattr(want, key), floor) for key, floor in floors.items()]


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


def _worse(pick, a: float, b: float) -> float:
    """``pick(a, b)``, except that a NaN on either side wins (``max`` and ``min`` drop one)."""
    return math.nan if math.isnan(a) or math.isnan(b) else pick(a, b)


def _fold(
    name: str, detail: str, outcomes: Iterable[_Outcome], pick=max, start: float = 0.0
) -> CheckResult:
    """The one place a stream of ``(worst gap, failures)`` outcomes becomes a suite's result.

    ``pick`` folds the gaps from ``start``; ``detail`` may show the result as ``{worst}``.
    """
    worst = start
    failures: list[str] = []
    for gap, found in outcomes:
        worst = _worse(pick, worst, gap)
        failures += found
    return CheckResult(name, not failures, worst, detail.format(worst=worst), failures)


def _compare(tag: str, toll: float, pairs: Iterable[tuple], tol: float) -> _Outcome:
    """The one comparison of ``(label, got, want, floor)`` pieces at one toll, in either model.

    ``got`` is the oracle's piece (at the urban limit, the urban model's) and
    ``want`` the closed form's; gaps are relative to ``max(|want|, floor)``.
    """
    worst = 0.0
    failures: list[str] = []
    for label, got, want, floor in pairs:
        gap_ = _rel_gap(got, want, floor)
        worst = _worse(max, worst, gap_)
        if not gap_ <= tol:
            failures.append(
                f"{tag} toll={toll:.6g} {label}: {got:.10g} vs {want:.10g}, rel gap {gap_:.3e}"
            )
    return worst, failures


def _check_oracle(params: BottleneckParams, toll: float, tag: str) -> _Outcome:
    """Revenue, the four cost components and ``n_transit`` at one toll vs quadrature."""
    outcome, sim_cost = oracle.static_bottleneck_costs(params, toll)
    closed_cost = bottleneck.static_system_cost(params, toll)
    closed_eq = bottleneck.static_equilibrium(params, toll)
    floor = _oracle_floor(params)
    pairs = _pieces(sim_cost, closed_cost, dict.fromkeys(_PIECES, floor))
    pairs.append(("n_transit", outcome.n_transit, closed_eq.n_transit, floor))
    return _compare(tag, toll, pairs, REL_TOL)


def _check_recovery(params: BottleneckParams, tag: str) -> _Outcome:
    """Grid search finds the flat-toll and trapezoid-fraction optima within one step.

    The worst gap is the flat argmax error minus the step (nonpositive on a pass).
    """
    failures: list[str] = []
    gap = params.cost_gap
    toll_star, flat = bottleneck.static_revenue_optimal_toll(params)
    toll_hat, rev_hat = oracle.grid_search_static(params)
    step = gap / (oracle.SEARCH_POINTS - 1) if gap > 0 else 0.0
    err = abs(toll_hat - toll_star)
    if not err <= step * 1.0000001:
        failures.append(f"{tag}: flat argmax {toll_hat:.8g} vs closed {toll_star:.8g}")
    # Grid revenue can never beat the closed-form optimum.
    if not rev_hat <= flat.revenue * (1 + 1e-9):
        failures.append(f"{tag}: grid revenue {rev_hat} exceeds optimum {flat.revenue}")

    design = bottleneck.dynamic_revenue_optimal(params)
    frac_hat, _ = oracle.grid_search_dynamic_fraction(params)
    f_lo = 1.0 - min(gap / bottleneck.max_wait_car_only(params), 1.0)
    f_step = (1.0 - f_lo) / (oracle.SEARCH_POINTS - 1)
    if not abs(frac_hat - design.flat_fraction) <= f_step * 1.0000001:
        failures.append(
            f"{tag}: fraction argmax {frac_hat:.8g} vs closed {design.flat_fraction:.8g}"
        )
    return err - step, failures


def _column(values, n: int) -> np.ndarray:
    """``values`` as ``n`` floats: a block's array as it is, one value repeated, None (absent) as NaN."""
    return np.broadcast_to(np.asarray(values, dtype=float), (n,))


def _messages(tags: Sequence[str], checks: list[_Check]) -> list[str]:
    """The failure messages of a block, set by set, each set's in the order of ``checks``."""
    failing = np.flatnonzero(np.logical_or.reduce([fails for fails, _ in checks]))
    return [f"{tags[i]}: {text(i)}" for i in failing for fails, text in checks if fails[i]]


def _check_bounds(
    report: bottleneck.BoundReport,
    flat_revenue,
    flat_cost,
    ro_revenue,
    ro_cost,
    so_cost,
    n: int,
) -> tuple[np.ndarray, list[_Check]]:
    """Every guarantee ``report`` states for ``n`` parameter sets, in either model.

    ``flat_*`` are the flat toll's revenue and system cost, ``ro_*`` the
    dynamic revenue-optimal design's, and ``so_cost`` the least system cost;
    each is a float or an array of ``n``.  Returns each set's revenue
    ratio's margin over its floor (infinite without a floor or a positive
    dynamic revenue, NaN when that is NaN), and the checks.
    """
    bound, cap_factor, exact = (
        _column(v, n)
        for v in (report.revenue_ratio_lower_bound, report.sc_ratio_upper_bound, report.exact_sc_ratio)
    )
    regime = np.broadcast_to(np.asarray(report.regime, dtype=object), (n,))
    flat_revenue, flat_cost, ro_revenue, ro_cost, so_cost = (
        _column(v, n) for v in (flat_revenue, flat_cost, ro_revenue, ro_cost, so_cost)
    )
    floored = ~np.isnan(bound) & ~(ro_revenue <= 0)
    ratio = flat_revenue / np.where(floored, ro_revenue, 1.0)
    margin = np.where(floored, ratio - bound, math.inf)
    capped = ~np.isnan(cap_factor)
    cap = cap_factor * so_cost * (1 + 1e-9)
    cornered = ~np.isnan(exact)
    cost_ratio = flat_cost / np.where(cornered, so_cost, 1.0)
    exact_gap = _rel_gap(cost_ratio, np.where(cornered, exact, 1.0))

    def over_cap(label: str, cost: np.ndarray) -> _Check:
        return capped & ~(cost <= cap), lambda i: (
            f"{label} system cost beats 2x bound: cost {cost[i]:.8g} vs cap {cap[i]:.8g}"
        )

    checks = [
        (
            floored & ~(ratio >= bound * (1 - 1e-9)),
            lambda i: f"revenue ratio {ratio[i]:.6f} below bound {bound[i]:.6f} ({regime[i].value})",
        ),
        over_cap("flat-toll", flat_cost),
        over_cap("dynamic", ro_cost),
        (
            cornered & ~(exact_gap <= 1e-9),
            # float(): numpy 2 prints np.float64(...) as its repr
            lambda i: f"cost ratio {float(cost_ratio[i])!r} vs exact corner ratio {float(exact[i])!r}",
        ),
    ]
    return margin, checks


def _grid_maxima(params: ParamsBlock) -> np.ndarray:
    """Each set's largest revenue on ``ARGMAX_GRID`` uniform tolls over ``[0, gap]``.

    A set's grid is its gap times one shared grid on ``[0, 1]``, cheaper than
    a ``linspace`` per set.  The grids are evaluated ``GRID_ROWS`` sets at a
    time, so memory stays flat in the block size.
    """
    unit = np.linspace(0.0, 1.0, ARGMAX_GRID)
    maxima = []
    for start in range(0, len(params.total_demand), GRID_ROWS):
        chunk = params[start:start + GRID_ROWS]
        tolls = chunk.cost_gap[:, np.newaxis] * unit
        maxima.append(oracle._static_revenue_curve(chunk, tolls).max(axis=1))
    return np.concatenate(maxima)


def _check_guarantees(
    sets: Sequence[BottleneckParams], tags: Sequence[str], corner: bool = False
) -> tuple[np.ndarray, list[str]]:
    """Every performance guarantee that ``performance_bounds`` reports, on a block of parameter sets.

    Also certifies the closed-form flat optimum against a dense revenue grid
    (no grid point may beat it, as no toll beats a true maximum), the dynamic
    optimum against it, and the 1/2 revenue floor; ``corner`` sets must
    report the exact cost ratio.  Returns each set's revenue margin (see
    :func:`_check_bounds`) and the failures, tagged by ``tags``.
    """
    params = ParamsBlock.stack(sets)
    n = len(tags)
    _, flat = bottleneck.static_revenue_optimal_toll(params)
    ro, so = (bottleneck._trapezoid_cost(params, f) for f in bottleneck._flat_fractions(params))
    report = bottleneck.performance_bounds(params)
    flat_revenue, ro_revenue = _column(flat.revenue, n), _column(ro.revenue, n)
    curve_max = _grid_maxima(params)
    paid = ~(ro_revenue <= 0)
    ratio = flat_revenue / np.where(paid, ro_revenue, 1.0)
    margin, bound_checks = _check_bounds(
        report, flat_revenue, flat.total, ro_revenue, ro.total, so.total, n
    )
    checks = [
        (
            ~(ro_revenue >= flat_revenue * (1 - 1e-9)),
            lambda i: (
                f"dynamic optimum below flat optimum: revenue {ro_revenue[i]:.8g} "
                f"vs flat {flat_revenue[i]:.8g}"
            ),
        ),
        (
            (params.cost_gap > 0) & ~(curve_max <= flat_revenue * (1 + 1e-9)),
            lambda i: f"grid revenue {curve_max[i]:.8g} beats closed optimum {flat_revenue[i]:.8g}",
        ),
        (
            paid & ~(ratio >= 0.5 - 1e-9),
            lambda i: f"revenue ratio {ratio[i]:.6f} under the 1/2 floor",
        ),
        *bound_checks,
    ]
    if corner:
        reported = _column(report.exact_sc_ratio, n)
        checks.insert(0, (np.isnan(reported), lambda i: "exact corner ratio not reported"))
    return margin, _messages(tags, checks)


def _check_urban(params: BottleneckParams, net: mfd.TriangularMfd, toll: float, tag: str) -> _Outcome:
    """The urban revenue and four cost pieces at one toll vs quadrature; the urban guarantees.

    The guarantees are those :func:`mfd.guarantees` states, at the top of
    the band ``toll = g``: the low-band revenue floor, and the factor 2 on the
    system cost while the gap stays within the car-only peak wait.
    """
    got = oracle.mfd_shoulder_quadrature(params, net, toll)
    want = mfd.static_system_cost(params, net, toll)
    floors = {"revenue": 1e-9 * params.total_demand, "queuing": 1e-9, "schedule": 1e-9}
    floors |= dict.fromkeys(("transit", "car_freeflow"), _oracle_floor(params))
    worst, failures = _compare(tag, toll, _pieces(got, want, floors), QUAD_TOL)
    bench = mfd.dynamic_benchmarks(params, net)
    at_gap = mfd.static_system_cost(params, net, params.cost_gap)
    report = mfd.guarantees(params, net)
    ro, so = bench.ro, bench.so
    _, checks = _check_bounds(
        report, at_gap.revenue, at_gap.total, ro.revenue, ro.system_cost, so.system_cost, 1
    )
    return worst, failures + _messages([tag], checks)


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

    def corner_draw() -> BottleneckParams:
        zero_car = dataclasses.replace(sample_params(rng), car_freeflow_cost=0.0, transit_cost=0.0)
        low, _ = regime_thresholds(zero_car)
        threshold = low * (2 * zero_car.arrival_rate - zero_car.capacity) / zero_car.capacity
        return dataclasses.replace(zero_car, transit_cost=threshold * rng.uniform(1.01, 3.0))

    def blocks(n: int) -> Iterator[range]:
        return (range(start, min(start + BLOCK, n)) for start in range(0, n, BLOCK))

    def outcomes() -> Iterator[_Outcome]:
        for cases in blocks(n_cases):
            draws = [sample_params(rng) for _ in cases]
            margins, failures = _check_guarantees(draws, [f"case {case}" for case in cases])
            yield float(margins.min()), failures
        # Degenerate-corner draws: zero car free-flow cost, gap beyond the
        # saturation threshold.  They do not feed the printed margin.
        for cases in blocks(max(n_cases // 10, 10)):
            draws = [corner_draw() for _ in cases]
            tags = [f"exact-ratio case {case}" for case in cases]
            yield math.inf, _check_guarantees(draws, tags, corner=True)[1]

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
        # the bottleneck algebra with capacity = max throughput.  Its gaps do
        # not feed the worst gap.
        rng_limit = random.Random(seed + 1)
        for case in range(20):
            params = sample_params(rng_limit, regime="low")
            net = mfd.TriangularMfd(params.capacity, LIMIT_JAM, freeflow_speed=30.0, trip_distance=5.0)
            lo = max(mfd.static_lower_toll(params, net), bottleneck.feasible_toll_band(params)[0])
            hi = params.cost_gap
            if hi <= lo:
                continue
            for frac in (0.25, 0.6, 1.0):
                toll = lo + frac * (hi - lo)
                got = mfd.static_system_cost(params, net, toll)
                want = bottleneck.static_system_cost(params, toll)
                pairs = _pieces(got, want, dict.fromkeys(("revenue", "queuing", "schedule"), 1e-9))
                yield 0.0, _compare(f"limit case {case}", toll, pairs, LIMIT_TOL)[1]

    return _fold(
        "urban-network agreement (log forms vs quadrature, limits, guarantees)",
        f"{n_cases} random triples, worst gap {{worst:.3e}}",
        outcomes(),
    )


def scenario_suite(scenario) -> CheckResult:
    """Deterministic checks along a calibrated scenario's eta sweep.

    At every sweep point the random suites' checks run: oracle vs closed
    forms at three tolls, optimum recovery by grid search, every performance
    guarantee (on all the sweep points at once, after the rest), and (for
    urban scenarios) the urban check mid-band.
    """

    def outcomes() -> Iterator[_Outcome]:
        checked: list[BottleneckParams] = []
        tags: list[str] = []
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
            checked.append(params)
            tags.append(tag)
            if scenario.is_mfd:
                net = scenario.mfd()
                lo = mfd.static_lower_toll(params, net)
                if gap > lo:
                    yield _check_urban(params, net, lo + 0.5 * (gap - lo), tag)
        if checked:
            yield 0.0, _check_guarantees(checked, tags)[1]

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
