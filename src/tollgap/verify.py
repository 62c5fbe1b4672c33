"""Randomized verification suites: closed forms vs the numeric oracle.

Each suite draws seeded parameter sets, compares an algebraic result against
its independently computed counterpart (the exact trapezoid rule on the
bottleneck's linear segments, Gauss–Legendre quadrature on the urban
shoulders, the oracle's shape certificates of the revenue optima), and
reports the worst discrepancy seen.
A suite's report depends only on its arguments; the CLI ``verify`` command
and the acceptance tests both run them.

Each check is written once, and the random and the scenario suites share
the checks; every guarantee is checked under exactly the precondition
``performance_bounds`` or ``mfd.guarantees`` states.  Every check but the
urban one takes a block of parameter sets: oracle agreement a row per
``(set, toll)``, optimum recovery and the guarantees a row per set, from
``BLOCK`` random cases at a time or from a scenario's whole sweep.  The
random draws come in blocks too (:func:`sample_block`): one loop reads the
stream in the one-at-a-time order, and the arithmetic runs once on the block.
A check returns ``(worst gap, failures)``, and builds a failure only for a
set that fails: its index in the block and its message, tagged ``case 7``
or ``eta=2.5``, set by set in the order of the check's tests.  So every
draw, message and printed figure is the one a set-by-set run gives, and the
scenario suite can merge its checks' failures sweep point by sweep point.
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
from .core import (
    BottleneckParams,
    ParameterError,
    ParamsBlock,
    clamp,
    classify_regime,
    regime_thresholds,
    select,
)

__all__ = [
    "CheckResult",
    "sample_params",
    "sample_block",
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


_Failures = list[tuple[int, str]]  # (the failing set's index in its block, its message), set by set
_Outcome = tuple[float, _Failures]
_Check = tuple[np.ndarray, Callable[[int], str]]  # which sets of a block fail, and set i's message

# The one tolerance of every check, relative: each closed form vs the oracle's quadrature and vs
# the fixed-capacity limit, the slack on every bound and optimum inequality, and each shape
# certificate's residual.  It is 30x the worst oracle gap measured over 200-300 seeds (the urban
# transit piece's 3.3e-11), 50x the bottleneck's (2.0e-11) and 4x the urban limit's (2.3e-10).
REL_TOL = 1e-9
# Floor (hours, times lam*max(z_T, 1)) of the transit and n_transit relative gaps, in both models:
# where transit N - n_car cancels to zero, as below the bottleneck band, the oracle keeps rounding
# residue up to ~4e-10 user-hours; a 1e-9 h floor fails.
ORACLE_FLOOR = 1e-4
BLOCK = 512  # random draws (cases, for the oracle suite) checked as one block
LIMIT_JAM = 1e15  # jam accumulation of the urban suite's fixed-capacity limit draws
_PIECES = ("revenue", "transit", "car_freeflow", "queuing", "schedule")  # of a CostBreakdown


def _rel_gap(got: np.ndarray, want: np.ndarray, floor=1e-12) -> np.ndarray:
    return np.abs(got - want) / np.maximum(np.abs(want), floor)


def _oracle_floor(params: BottleneckParams) -> float:
    """Floor of the transit and ``n_transit`` relative gaps: ``ORACLE_FLOOR * lam * max(z_T, 1)``."""
    return ORACLE_FLOOR * params.arrival_rate * clamp(params.transit_cost, 1.0)


def _pieces(got, want, floors: dict, keys: Sequence[str] = _PIECES) -> list[tuple]:
    """``(label, got.label, want.label, floor)`` for each label of ``keys``.

    A piece's floor is ``floors[label]``, or :func:`_rel_gap`'s 1e-12 where
    ``floors`` does not name it.
    """
    return [(key, getattr(got, key), getattr(want, key), floors.get(key, 1e-12)) for key in keys]


_BANDS = ("low", "mid", "high")  # the congested bands of ``sample_params``' regime


def _uniform(lo, hi, u):
    """``random.Random.uniform``'s arithmetic on a raw draw ``u`` (floats or arrays)."""
    return lo + (hi - lo) * u


def _draw_numbers(rng: random.Random, regime: str | None) -> list[float]:
    """One set's random numbers, in stream order.

    The arrival rate, five raw uniforms, the band's index and the gap's raw
    uniform.  The arrival rate ``10 ** u`` is raised here, on a float:
    numpy's power rounds about one in twenty of them differently.
    """
    u = rng.random
    arrival = 10 ** _uniform(2.0, 4.5, u())
    shares = [u(), u(), u(), u(), u()]
    band = _BANDS.index(regime or rng.choice(_BANDS))
    return [arrival, *shares, band, u()]


def _params_from(numbers, build):
    """The parameter set, or block, that :func:`_draw_numbers`' values make (floats or arrays).

    ``build`` is :class:`BottleneckParams` or :class:`ParamsBlock`; the same
    arithmetic serves both, so a block row equals the one-set draw bit for bit.
    The band's thresholds come from an unvalidated :class:`ParamsBlock` probe,
    floats or arrays, so only the returned set is validated.
    """
    arrival, capacity_u, demand_u, early_u, late_u, car_u, band, gap_u = numbers
    capacity = arrival * _uniform(0.15, 0.92, capacity_u)
    demand = arrival * _uniform(0.5, 5.0, demand_u)
    early = _uniform(0.2, 0.9, early_u)
    late = _uniform(0.3, 3.5, late_u)
    car_cost = _uniform(0.0, 3.0, car_u)
    low, high = regime_thresholds(ParamsBlock(demand, arrival, capacity, early, late, car_cost, car_cost))
    gap_lo = select(band == 0, 0.0, select(band == 1, low, high))
    gap_hi = select(band == 0, low, select(band == 1, high, 2.5 * high))
    gap = _uniform(gap_lo, gap_hi, gap_u)
    return build(demand, arrival, capacity, early, late, car_cost, car_cost + gap)


def sample_params(rng: random.Random, regime: str | None = None) -> BottleneckParams:
    """Draw a valid congested parameter set (capacity < arrival rate, gap >= 0).

    ``regime`` may pin the cost gap into one of the three congested bands
    ("low", "mid", "high"); by default the three are drawn evenly.  Ranges
    keep the car-only peak wait within a few hours, as in the calibrated
    corridors.
    """
    return _params_from(_draw_numbers(rng, regime), BottleneckParams)


def _draw_rows(rng: random.Random, n: int, regime: str | None, extra: int = 0) -> np.ndarray:
    """``n`` sets' :func:`_draw_numbers`, each followed by ``extra`` raw uniforms, one column a set."""
    rows = [_draw_numbers(rng, regime) + [rng.random() for _ in range(extra)] for _ in range(n)]
    return np.array(rows, dtype=float).reshape(n, 8 + extra).T


def sample_block(rng: random.Random, n: int, regime: str | None = None) -> ParamsBlock:
    """``n`` draws of :func:`sample_params` from the same stream, as one block.

    One loop reads the stream in the same order; the arithmetic then runs
    once on the block, and its sets skip validation.
    """
    return _params_from(_draw_rows(rng, n, regime), ParamsBlock)


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
        failures += (message for _, message in found)
    return CheckResult(name, not failures, worst, detail.format(worst=worst), failures)


def _compare(tags: Sequence[str], tolls, pairs: Sequence[tuple]) -> _Outcome:
    """The one comparison of ``(label, got, want, floor)`` pieces, in either model.

    Row ``i`` is tagged ``tags[i]`` at toll ``tolls[i]``; a value is a float
    or an array with one entry a row.  ``got`` is the oracle's piece (at the
    urban limit, the urban model's) and ``want`` the closed form's; gaps are
    relative to ``max(|want|, floor)``.  Failures come row by row, each
    row's in the order of ``pairs``.
    """
    shape = (len(pairs), len(tags))
    got, want, floor = np.empty(shape), np.empty(shape), np.empty(shape)
    for k, (_, got_k, want_k, floor_k) in enumerate(pairs):
        got[k], want[k], floor[k] = got_k, want_k, floor_k
    row_tolls = np.empty(len(tags))
    row_tolls[:] = tolls
    gaps = _rel_gap(got, want, floor)
    fails = ~(gaps <= REL_TOL)
    failures = [
        (i, f"{tags[i]} toll={row_tolls[i]:.6g} {pairs[k][0]}: {got[k, i]:.10g} vs {want[k, i]:.10g}, "
         f"rel gap {gaps[k, i]:.3e}")
        for i in np.flatnonzero(fails.any(axis=0))
        for k in np.flatnonzero(fails[:, i])
    ]
    return float(gaps.max()), failures  # a NaN wins


def _check_oracle(params: ParamsBlock, tolls: np.ndarray, tags: Sequence[str]) -> _Outcome:
    """Revenue, the four cost components and ``n_transit`` vs quadrature, on a block with one toll a set."""
    outcome, sim_cost = oracle.static_bottleneck_costs(params, tolls)
    closed_cost = bottleneck.static_system_cost(params, tolls)
    closed_eq = bottleneck.static_equilibrium(params, tolls)
    floor = _oracle_floor(params)
    # Each piece's floor covers its measured residue.  Revenue, car and queuing agree to 1e-15 of
    # their own values.  The schedule's residue reaches 5e-16 * N*W (the oracle takes segment
    # lengths as differences of clock times); 1.5e-5 * N*W puts it 30x under REL_TOL, and the
    # minimum serves W = 0, where both sides are 0.
    schedule_floor = clamp(1.5e-5 * params.total_demand * closed_eq.peak_wait, 1e-12)
    pairs = _pieces(sim_cost, closed_cost, {"transit": floor, "schedule": schedule_floor})
    pairs.append(("n_transit", outcome.n_transit, closed_eq.n_transit, floor))
    return _compare(tags, tolls, pairs)


def _shape_check(label: str, residual: np.ndarray) -> _Check:
    """A certificate's shape must hold: its quarter-point miss at most ``REL_TOL`` of the piece."""
    return ~(residual <= REL_TOL), lambda i: f"{label} off its quadratic pieces: residual {residual[i]:.3e}"


def _check_recovery(params: ParamsBlock, tags: Sequence[str], certificate: tuple) -> _Outcome:
    """The oracle's shape certificates recover each set's flat-toll and trapezoid-fraction optima.

    Each certificate's shape must hold to ``REL_TOL``.  The oracle's revenue
    at the closed-form toll, the trapezoid curve's at the closed-form
    fraction, and the closed forms' own optimal revenues must each lie
    within ``REL_TOL`` of the certified maximum.  ``certificate`` is the
    block's :func:`oracle.flat_certificate`; the fraction certificate and the
    closed forms each run once on the block.  The worst gap is the largest
    relative gap or residual.
    """
    toll_star, flat = bottleneck.static_revenue_optimal_toll(params)
    f_star, _ = bottleneck._flat_fractions(params)
    dynamic = bottleneck._trapezoid_cost(params, f_star).revenue
    _, flat_max, flat_shape = certificate
    _, fraction_max, fraction_shape = oracle.fraction_certificate(params)
    at_toll = oracle.static_bottleneck_costs(params, toll_star)[1].revenue
    at_fraction = oracle._fraction_revenue_curve(params, 1.0 - f_star)
    gaps = [flat_shape, fraction_shape]

    def near(label: str, at: np.ndarray, got: np.ndarray, best: np.ndarray) -> _Check:
        gap = _rel_gap(got, best)
        gaps.append(gap)
        return ~(gap <= REL_TOL), lambda i: (
            f"{label} {at[i]:.8g}: {got[i]:.10g} vs certified max {best[i]:.10g}, rel gap {gap[i]:.3e}"
        )

    checks = [
        _shape_check("oracle flat revenue", flat_shape),
        near("oracle revenue at closed toll", toll_star, at_toll, flat_max),
        near("closed flat revenue at toll", toll_star, flat.revenue, flat_max),
        _shape_check("trapezoid revenue curve", fraction_shape),
        near("trapezoid curve at closed fraction", f_star, at_fraction, fraction_max),
        near("closed trapezoid revenue at fraction", f_star, dynamic, fraction_max),
    ]
    return float(np.max(gaps)), _messages(tags, checks)  # a NaN wins


def _column(values, n: int) -> np.ndarray:
    """``values`` as ``n`` floats: a block's array as it is, one value repeated, None (absent) as NaN."""
    return np.broadcast_to(np.asarray(values, dtype=float), (n,))


def _messages(tags: Sequence[str], checks: list[_Check]) -> _Failures:
    """The failures of a block, set by set, each set's in the order of ``checks``."""
    failing = np.flatnonzero(np.logical_or.reduce([fails for fails, _ in checks]))
    return [(i, f"{tags[i]}: {text(i)}") for i in failing for fails, text in checks if fails[i]]


def _check_bounds(
    params: ParamsBlock | list[BottleneckParams],
    report: bottleneck.BoundReport,
    flat_revenue,
    flat_cost,
    ro_revenue,
    ro_cost,
    so_cost,
    n: int,
) -> tuple[np.ndarray, list[_Check]]:
    """Every guarantee ``report`` states for ``n`` parameter sets, in either model.

    ``params[i]`` is set ``i`` of those ``report`` is for (a block, or a list
    of one set), read only to name a failing set's band.  ``flat_*`` are the
    flat toll's revenue and system cost, ``ro_*`` the dynamic revenue-optimal
    design's, and ``so_cost`` the least system cost; each is a float or an
    array of ``n``.  Returns each set's revenue ratio's margin over its floor
    (infinite without a floor or a positive dynamic revenue, NaN when that
    is NaN), and the checks.
    """
    bound, cap_factor, exact = (
        _column(v, n)
        for v in (report.revenue_ratio_lower_bound, report.sc_ratio_upper_bound, report.exact_sc_ratio)
    )
    flat_revenue, flat_cost, ro_revenue, ro_cost, so_cost = (
        _column(v, n) for v in (flat_revenue, flat_cost, ro_revenue, ro_cost, so_cost)
    )
    floored = ~np.isnan(bound) & ~(ro_revenue <= 0)
    ratio = flat_revenue / np.where(floored, ro_revenue, 1.0)
    margin = np.where(floored, ratio - bound, math.inf)
    capped = ~np.isnan(cap_factor)
    cap = cap_factor * so_cost * (1 + REL_TOL)
    cornered = ~np.isnan(exact)
    cost_ratio = flat_cost / np.where(cornered, so_cost, 1.0)
    exact_gap = _rel_gap(cost_ratio, np.where(cornered, exact, 1.0))

    def over_cap(label: str, cost: np.ndarray) -> _Check:
        return capped & ~(cost <= cap), lambda i: (
            f"{label} system cost beats 2x bound: cost {cost[i]:.8g} vs cap {cap[i]:.8g}"
        )

    checks = [
        (
            floored & ~(ratio >= bound * (1 - REL_TOL)),
            lambda i: (
                f"revenue ratio {ratio[i]:.6f} below bound {bound[i]:.6f} "
                f"({classify_regime(params[i]).value})"
            ),
        ),
        over_cap("flat-toll", flat_cost),
        over_cap("dynamic", ro_cost),
        (
            cornered & ~(exact_gap <= REL_TOL),
            # float(): numpy 2 prints np.float64(...) as its repr
            lambda i: f"cost ratio {float(cost_ratio[i])!r} vs exact corner ratio {float(exact[i])!r}",
        ),
    ]
    return margin, checks


def _check_guarantees(
    params: ParamsBlock, tags: Sequence[str], certificate: tuple, corner: bool = False
) -> tuple[np.ndarray, _Failures]:
    """Every performance guarantee that ``performance_bounds`` reports, on a block of parameter sets.

    Also checks the closed-form flat optimum against ``certificate``, the
    block's :func:`oracle.flat_certificate` (no certified candidate may beat
    it, as no toll beats a true maximum), the dynamic optimum against it, and
    the 1/2 revenue floor; ``corner`` sets must report the exact cost ratio.
    Returns each set's revenue margin (see :func:`_check_bounds`) and the
    failures, tagged by ``tags``.
    """
    n = len(tags)
    _, flat = bottleneck.static_revenue_optimal_toll(params)
    ro, so = (bottleneck._trapezoid_cost(params, f) for f in bottleneck._flat_fractions(params))
    report = bottleneck.performance_bounds(params)
    flat_revenue, ro_revenue = _column(flat.revenue, n), _column(ro.revenue, n)
    _, curve_max, shape = certificate
    paid = ~(ro_revenue <= 0)
    ratio = flat_revenue / np.where(paid, ro_revenue, 1.0)
    margin, bound_checks = _check_bounds(
        params, report, flat_revenue, flat.total, ro_revenue, ro.total, so.total, n
    )
    checks = [
        (
            ~(ro_revenue >= flat_revenue * (1 - REL_TOL)),
            lambda i: (
                f"dynamic optimum below flat optimum: revenue {ro_revenue[i]:.8g} "
                f"vs flat {flat_revenue[i]:.8g}"
            ),
        ),
        _shape_check("oracle flat revenue", shape),
        (
            (params.cost_gap > 0) & ~(curve_max <= flat_revenue * (1 + REL_TOL)),
            lambda i: f"certified revenue {curve_max[i]:.8g} beats closed optimum {flat_revenue[i]:.8g}",
        ),
        (
            paid & ~(ratio >= 0.5 - REL_TOL),
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
    # Only transit, N less the car users, needs a floor: over 6000 draws the other pieces agree to
    # 2e-13 of their own values, and a floor would hide a fault where they are small.
    worst, failures = _compare([tag], toll, _pieces(got, want, {"transit": _oracle_floor(params)}))
    bench = mfd.dynamic_benchmarks(params, net)
    at_gap = mfd.static_system_cost(params, net, params.cost_gap)
    report = mfd.guarantees(params, net)
    ro, so = bench.ro, bench.so
    at_mu_f = dataclasses.replace(params, capacity=net.max_throughput)
    _, checks = _check_bounds(
        [at_mu_f], report, at_gap.revenue, at_gap.total, ro.revenue, ro.system_cost, so.system_cost, 1
    )
    return worst, failures + _messages([tag], checks)


def _blocks(n: int) -> Iterator[range]:
    """Case numbers ``0..n-1``, ``BLOCK`` at a time."""
    return (range(start, min(start + BLOCK, n)) for start in range(0, n, BLOCK))


def oracle_agreement_suite(seed: int, n_cases: int) -> CheckResult:
    """Closed-form revenue and every cost component vs trapezoid quadrature, two tolls a case.

    Each case's set is followed by three raw uniforms: the first is unused,
    which keeps each seed's stream, and the others give the tolls
    ``uniform(lo, hi)``, in the mixed band, and ``uniform(0, hi)``.
    """
    rng = random.Random(seed)

    def outcomes() -> Iterator[_Outcome]:
        for cases in _blocks(n_cases):
            *numbers, _, u_hi, u_band = _draw_rows(rng, len(cases), None, extra=3)
            block = _params_from(numbers, ParamsBlock)
            lo, hi = bottleneck.feasible_toll_band(block)
            tolls = np.stack([_uniform(lo, hi, u_band), _uniform(0.0, hi, u_hi)], axis=1).ravel()
            tags = [f"case {case}" for case in cases for _ in range(2)]
            yield _check_oracle(block[np.repeat(np.arange(len(cases)), 2)], tolls, tags)

    return _fold(
        "oracle agreement (trapezoid quadrature vs closed forms)",
        f"{n_cases} parameter sets, worst rel gap {{worst:.3e}}",
        outcomes(),
    )


def optimizer_recovery_suite(seed: int, n_cases: int) -> CheckResult:
    """The oracle's shape certificates recover both closed-form revenue optima."""
    rng = random.Random(seed)

    def outcomes() -> Iterator[_Outcome]:
        for cases in _blocks(n_cases):
            block = sample_block(rng, len(cases))
            yield _check_recovery(block, [f"case {case}" for case in cases], oracle.flat_certificate(block))

    return _fold(
        "optimizer recovery (oracle shape certificates vs closed-form optima)",
        f"{n_cases} parameter sets, worst rel gap {{worst:.3e}}",
        outcomes(),
    )


def bound_property_suite(seed: int, n_cases: int) -> CheckResult:
    """Every stated performance guarantee, on random draws across all regimes.

    Also checks the closed-form flat optimum against the oracle's shape
    certificate on every draw, and the exact cost ratio on draws in the
    degenerate corner.
    """
    rng = random.Random(seed)

    def corner_block(n: int) -> ParamsBlock:
        # Each draw is followed by the uniform that scales its gap past the threshold.
        *numbers, scale = _draw_rows(rng, n, None, extra=1)
        zeros = np.zeros(n)
        zero_car = dataclasses.replace(
            _params_from(numbers, ParamsBlock), car_freeflow_cost=zeros, transit_cost=zeros
        )
        low, _ = regime_thresholds(zero_car)
        threshold = low * (2 * zero_car.arrival_rate - zero_car.capacity) / zero_car.capacity
        return dataclasses.replace(zero_car, transit_cost=threshold * _uniform(1.01, 3.0, scale))

    def outcomes() -> Iterator[_Outcome]:
        for cases in _blocks(n_cases):
            tags = [f"case {case}" for case in cases]
            block = sample_block(rng, len(cases))
            margins, failures = _check_guarantees(block, tags, oracle.flat_certificate(block))
            yield float(margins.min()), failures
        # Degenerate-corner draws: zero car free-flow cost, gap beyond the
        # saturation threshold.  They do not feed the printed margin.
        for cases in _blocks(max(n_cases // 10, 10)):
            tags = [f"exact-ratio case {case}" for case in cases]
            block = corner_block(len(cases))
            yield math.inf, _check_guarantees(block, tags, oracle.flat_certificate(block), corner=True)[1]

    return _fold(
        "performance-bound properties (revenue floors, 2x cost bound, exact corner)",
        f"{n_cases} draws; smallest revenue-bound margin {{worst:.3e}}",
        outcomes(),
        pick=min,
        start=math.inf,
    )


def mfd_agreement_suite(seed: int, n_cases: int) -> CheckResult:
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
            tolls = lo + np.array([0.25, 0.6, 1.0]) * (hi - lo)
            got = mfd.static_system_cost(params, net, tolls)
            want = bottleneck.static_system_cost(params, tolls)
            pairs = _pieces(got, want, {}, ("revenue", "queuing", "schedule"))
            yield 0.0, _compare([f"limit case {case}"] * 3, tolls, pairs)[1]

    return _fold(
        "urban-network agreement (log forms vs quadrature, limits, guarantees)",
        f"{n_cases} random triples, worst gap {{worst:.3e}}",
        outcomes(),
    )


def scenario_suite(scenario) -> CheckResult:
    """Deterministic checks along a calibrated scenario's eta sweep.

    At every congested sweep point with a nonnegative gap the random suites'
    checks run: oracle vs closed forms at three tolls, optimum recovery by
    the shape certificates, (for urban scenarios) the urban check mid-band,
    and every performance guarantee.  Each check but the urban one runs once on all
    the checked points; the failures come sweep point by sweep point in that
    order, the guarantees' after all the rest.  The result names each point
    left unchecked (all transit, or uncongested), and with none checked it
    is a vacuous pass with a warning.
    """
    checked: list[BottleneckParams] = []
    tags: list[str] = []
    unchecked: list[str] = []
    for eta in scenario.eta_sweep:
        params = scenario.params(eta)
        if params.cost_gap < 0:
            unchecked.append(f"eta={eta:g} (all transit)")
        elif params.capacity >= params.arrival_rate:
            unchecked.append(f"eta={eta:g} (uncongested)")
        else:
            checked.append(params)
            tags.append(f"eta={eta:g}")
    detail = f"{len(scenario.eta_sweep)} sweep points, "
    if not checked:
        detail += "none congested with a nonnegative gap: vacuous pass (warning: nothing was checked)"
    else:
        detail += "worst rel gap {worst:.3e}"
        if unchecked:
            detail += f"; not checked: {', '.join(unchecked)}"

    def outcomes() -> Iterator[_Outcome]:
        if not checked:
            return
        block = ParamsBlock.stack(checked)
        rows = np.repeat(np.arange(len(tags)), 3)
        tolls = np.tile([0.0, 0.5, 1.0], len(tags)) * block.cost_gap[rows]
        worst, found = _check_oracle(block[rows], tolls, [tags[i] for i in rows])
        found = [(rows[i], message) for i, message in found]
        # Only the recovery failures count: the printed worst gap is the oracle's and the urban check's.
        certificate = oracle.flat_certificate(block)
        found += _check_recovery(block, tags, certificate)[1]
        if scenario.is_mfd:
            net = scenario.mfd()
            for i, params in enumerate(checked):
                lo = mfd.static_lower_toll(params, net)
                if params.cost_gap > lo:
                    gap, urban = _check_urban(params, net, lo + 0.5 * (params.cost_gap - lo), tags[i])
                    worst = _worse(max, worst, gap)
                    found += [(i, message) for _, message in urban]
        yield worst, sorted(found, key=lambda failure: failure[0])
        yield 0.0, _check_guarantees(block, tags, certificate)[1]

    return _fold(f"scenario suite ({scenario.name})", detail, outcomes())


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
