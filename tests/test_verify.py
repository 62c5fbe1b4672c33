"""The verification suites: seed robustness and planted faults that each check must catch."""

import dataclasses
import math
import random

import numpy as np
import pytest

from tollgap import BottleneckParams, oracle
from tollgap import bottleneck as bn
from tollgap import mfd, verify
from tollgap.calibration import builtin_scenario
from tollgap.core import ParamsBlock, Regime, classify_regime


@pytest.mark.parametrize("seed", range(5))
def test_suites_pass_for_any_seed(seed):
    # verify.REL_TOL, at case counts well above the CLI's per-suite shares.
    for result in (
        verify.mfd_agreement_suite(seed, 300),
        verify.optimizer_recovery_suite(seed, 300),
        verify.bound_property_suite(seed, 2000),
        verify.oracle_agreement_suite(seed, 100),
    ):
        assert result.ok, (result.name, result.failures)


def test_urban_cost_guarantee_catches_planted_fault(monkeypatch):
    real = mfd.static_system_cost
    drawn = []

    def tripled_at_gap(params, net, toll):
        cost = real(params, net, toll)
        if net.jam_accumulation == verify.LIMIT_JAM:
            return cost  # the limit draws compare every piece, and would flag the fault too
        if toll != params.cost_gap:
            drawn.append(params)
            return cost
        return dataclasses.replace(
            cost, **{f.name: 3.0 * getattr(cost, f.name) for f in dataclasses.fields(cost)}
        )

    monkeypatch.setattr(mfd, "static_system_cost", tripled_at_gap)
    result = verify.mfd_agreement_suite(0, 15)
    flagged = [f for f in result.failures if "flat-toll system cost beats 2x bound" in f]
    assert all(" vs cap " in f for f in flagged)
    # The guard fires on exactly the draws inside the theorem's precondition g <= W_max.
    within = [p for p in drawn if p.cost_gap <= bn.max_wait_car_only(p)]
    assert within
    assert len(flagged) == len(within)
    assert len(result.failures) == len(flagged)


def test_urban_queuing_check_catches_planted_fault(monkeypatch):
    # mfd's own queuing total is compared with the oracle's shoulder and flat blocks.
    real = mfd.static_system_cost

    def skewed_queue(params, net, toll):
        cost = real(params, net, toll)
        return dataclasses.replace(cost, queuing=cost.queuing * (1 + 1e-6))

    monkeypatch.setattr(mfd, "static_system_cost", skewed_queue)
    result = verify.mfd_agreement_suite(0, 15)
    assert not result.ok
    assert any(" queuing: " in f and ", rel gap 1.000e-06" in f for f in result.failures)


def test_nyc_scenario_checks_the_urban_queuing_cost(monkeypatch):
    # The scenario suite runs the same urban check as the random urban suite.
    real = mfd.static_system_cost

    def skewed_queue(params, net, toll):
        cost = real(params, net, toll)
        return dataclasses.replace(cost, queuing=cost.queuing * (1 + 1e-6))

    monkeypatch.setattr(mfd, "static_system_cost", skewed_queue)
    result = verify.scenario_suite(builtin_scenario("nyc"))
    assert not result.ok
    assert any(" queuing: " in f and ", rel gap 1.000e-06" in f for f in result.failures)


@pytest.mark.parametrize(
    "piece, skew, seed, n_cases",
    [
        pytest.param("transit", 1e-6, 0, 15, id="transit"),
        pytest.param("car_freeflow", 1e-6, 0, 15, id="car_freeflow"),
        pytest.param("transit", 3e-9, 45, 100, id="transit-3e-9"),
    ],
)
def test_urban_mode_split_pieces_are_compared(piece, skew, seed, n_cases, monkeypatch):
    # Every urban cost ratio sums the transit and car pieces, so both suites
    # compare them with the oracle too; a 3e-9 skew is 100x the worst transit
    # gap measured.
    real = mfd.static_system_cost

    def skewed(params, net, toll):
        cost = real(params, net, toll)
        return dataclasses.replace(cost, **{piece: getattr(cost, piece) * (1 + skew)})

    monkeypatch.setattr(mfd, "static_system_cost", skewed)
    for result in (verify.mfd_agreement_suite(seed, n_cases), verify.scenario_suite(builtin_scenario("nyc"))):
        assert not result.ok
        assert any(f" {piece}: " in f for f in result.failures)


@pytest.mark.parametrize(
    "piece, skew, toll_at",
    [
        pytest.param("revenue", 1e-6, lambda gap: 1e-12, id="revenue-at-toll-1e-12"),
        pytest.param("queuing", 1e-7, lambda gap: gap * (1 - 1e-13), id="queuing-at-the-band-top"),
    ],
)
def test_urban_check_catches_a_fault_on_a_small_value(piece, skew, toll_at, monkeypatch):
    # Revenue at a 1e-12 toll and queuing at a wait of 1e-13 of the gap are
    # far below any hand-set floor, which would scale their gaps down by
    # value/floor; at the default floor a fault shows at its own size.
    rng = random.Random(7)
    params = verify.sample_params(rng, "low")
    net = verify.sample_mfd(rng, params)
    assert mfd.static_lower_toll(params, net) == 0.0
    toll = toll_at(params.cost_gap)
    assert verify._check_urban(params, net, toll, "case 0")[1] == []
    real = mfd.static_system_cost

    def skewed(params, net, toll):
        cost = real(params, net, toll)
        return dataclasses.replace(cost, **{piece: getattr(cost, piece) * (1 + skew)})

    monkeypatch.setattr(mfd, "static_system_cost", skewed)
    worst, failures = verify._check_urban(params, net, toll, "case 0")
    assert worst == pytest.approx(skew, rel=1e-5)
    [(_, message)] = failures
    assert message.startswith(f"case 0 toll={toll:.6g} {piece}: ")
    assert message.endswith(f", rel gap {skew:.3e}")


def test_urban_floor_failure_names_the_band_at_mu_f(monkeypatch):
    # The urban floor is stated at mu_f, so a failing floor names the band of
    # the set at mu_f: low here, while the set's own capacity puts it high.
    params = verify.sample_params(random.Random(2), "high")
    factor = params.total_demand * params.schedule_factor
    mu_f = params.arrival_rate - 0.5 * factor / params.cost_gap
    net = mfd.TriangularMfd(mu_f, 10 * mu_f * 5.0 / 30.0, freeflow_speed=30.0, trip_distance=5.0)
    assert classify_regime(params) is Regime.MIXED_HIGH
    assert verify._check_urban(params, net, params.cost_gap, "case 0")[1] == []
    real = mfd.guarantees

    def raised_floor(params, net):
        return dataclasses.replace(real(params, net), revenue_ratio_lower_bound=2.0)

    monkeypatch.setattr(mfd, "guarantees", raised_floor)
    _, failures = verify._check_urban(params, net, params.cost_gap, "case 0")
    [(_, message)] = failures
    assert message.startswith("case 0: revenue ratio ")
    assert message.endswith(" below bound 2.000000 (mixed_low)")


def test_a_1e7_bottleneck_queuing_fault_fails_every_oracle_comparison(monkeypatch):
    # 1e-7 is 5000x the worst bottleneck oracle gap measured.
    real = bn.static_system_cost

    def skewed(params, toll):
        cost = real(params, toll)
        return dataclasses.replace(cost, queuing=cost.queuing * (1 + 1e-7))

    monkeypatch.setattr(bn, "static_system_cost", skewed)
    for result in (
        verify.oracle_agreement_suite(42, 1000),
        verify.scenario_suite(builtin_scenario("bay_bridge")),
        verify.scenario_suite(builtin_scenario("nyc")),
    ):
        assert not result.ok
        assert all(" queuing: " in f for f in result.failures)
        assert any(f.endswith(", rel gap 1.000e-07") for f in result.failures)


def test_a_1e6_schedule_fault_fails_every_row_with_a_schedule(monkeypatch):
    # The schedule's floor follows its own residue, not the transit floor, under
    # which a schedule cost this small let such a fault pass.
    real = bn.static_system_cost
    scheduled = []

    def skewed(params, toll):
        cost = real(params, toll)
        scheduled.append(int(np.count_nonzero(cost.schedule > 0)))
        return dataclasses.replace(cost, schedule=cost.schedule * (1 + 1e-6))

    monkeypatch.setattr(bn, "static_system_cost", skewed)
    result = verify.oracle_agreement_suite(42, 1000)
    assert len(result.failures) == sum(scheduled) > 0
    assert all(" schedule: " in f and f.endswith(", rel gap 1.000e-06") for f in result.failures)


def test_reported_exact_corner_ratio_is_checked(monkeypatch):
    real = bn.performance_bounds

    def scaled_exact_ratio(params):
        report = real(params)
        if report.exact_sc_ratio is None:
            return report
        return dataclasses.replace(report, exact_sc_ratio=1.01 * report.exact_sc_ratio)

    monkeypatch.setattr(bn, "performance_bounds", scaled_exact_ratio)
    result = verify.bound_property_suite(3, 100)
    # Only the ten corner draws report the exact ratio, and each one fails.
    assert len(result.failures) == 10
    assert all(f.startswith("exact-ratio case") for f in result.failures)
    assert all("exact corner ratio" in f for f in result.failures)


@pytest.mark.parametrize("piece", ["queuing", "schedule"])
def test_urban_limit_check_compares_every_piece(piece, monkeypatch):
    # At the limit jam accumulation the urban pieces must match the bottleneck's to 1e-9.
    real = mfd.static_system_cost

    def skewed_at_the_limit(params, net, toll):
        cost = real(params, net, toll)
        if net.jam_accumulation != verify.LIMIT_JAM:
            return cost
        return dataclasses.replace(cost, **{piece: getattr(cost, piece) * (1 + 1e-8)})

    monkeypatch.setattr(mfd, "static_system_cost", skewed_at_the_limit)
    result = verify.mfd_agreement_suite(0, 15)
    assert not result.ok
    assert all(f.startswith("limit case ") and f" {piece}: " in f for f in result.failures)


def _nan_field(real, name):
    """``real`` with one field of its dataclass result replaced by NaN."""
    return lambda *args: dataclasses.replace(real(*args), **{name: math.nan})


def test_nan_bottleneck_queuing_fails_oracle_agreement(monkeypatch):
    monkeypatch.setattr(bn, "static_system_cost", _nan_field(bn.static_system_cost, "queuing"))
    result = verify.oracle_agreement_suite(42, 50)
    assert not result.ok
    assert all(" queuing: " in f and f.endswith(" vs nan, rel gap nan") for f in result.failures)


def test_nan_flat_cost_shows_in_the_2x_bound_message(monkeypatch):
    bay = builtin_scenario("bay_bridge")
    params = bay.params(1.5)
    report = bn.performance_bounds(params)
    assert report.sc_ratio_upper_bound is not None
    cap = report.sc_ratio_upper_bound * bn.dynamic_so_design(params).system_cost * (1 + 1e-9)
    # In the kernel, since the check reads the flat optimum's own pieces.
    monkeypatch.setattr(bn, "_flat_toll", _nan_field(bn._flat_toll, "queuing"))
    result = verify.scenario_suite(bay)
    want = f"eta=1.5: flat-toll system cost beats 2x bound: cost nan vs cap {cap:.8g}"
    assert want in result.failures


def test_nan_urban_revenue_fails_urban_agreement(monkeypatch):
    monkeypatch.setattr(mfd, "static_system_cost", _nan_field(mfd.static_system_cost, "revenue"))
    result = verify.mfd_agreement_suite(1, 30)
    assert not result.ok
    assert any(" revenue: " in f and f.endswith(" vs nan, rel gap nan") for f in result.failures)


def test_nan_dynamic_revenue_fails_bound_properties(monkeypatch):
    # The suite reads the dynamic designs' pieces from the trapezoid kernel.
    planted = _nan_field(bn._trapezoid_cost, "revenue")
    monkeypatch.setattr(bn, "_trapezoid_cost", planted)
    result = verify.bound_property_suite(44, 200)
    assert not result.ok
    assert any("dynamic optimum below flat optimum" in f for f in result.failures)


def test_nan_gap_shows_as_the_worst_gap(monkeypatch):
    monkeypatch.setattr(bn, "static_system_cost", _nan_field(bn.static_system_cost, "queuing"))
    result = verify.oracle_agreement_suite(42, 50)
    assert math.isnan(result.worst)
    assert result.line().endswith("worst rel gap nan")


def test_nan_dynamic_revenue_shows_as_the_margin(monkeypatch):
    planted = _nan_field(bn._trapezoid_cost, "revenue")
    monkeypatch.setattr(bn, "_trapezoid_cost", planted)
    result = verify.bound_property_suite(44, 200)
    assert math.isnan(result.worst)
    assert result.line().endswith("smallest revenue-bound margin nan")


def test_a_1e9_trapezoid_revenue_fault_fails_recovery_and_both_scenarios(monkeypatch):
    # R(f) 1e-9 too high at every fraction, REL_TOL itself: the trapezoid
    # curve's certified maximum catches it (5e-10 passes).  With the grid
    # searches, which compared argmax fractions only, 1e-6 passed every suite.
    real = bn._trapezoid_cost

    def skewed(params, fraction):
        cost = real(params, fraction)
        return dataclasses.replace(cost, revenue=cost.revenue * (1 + 1e-9))

    monkeypatch.setattr(bn, "_trapezoid_cost", skewed)
    for result in (
        verify.optimizer_recovery_suite(43, 500),
        verify.scenario_suite(builtin_scenario("bay_bridge")),
        verify.scenario_suite(builtin_scenario("nyc")),
    ):
        assert not result.ok
        assert all(": closed trapezoid revenue at fraction " in message for message in result.failures)


def test_a_cubic_term_in_the_oracle_flat_revenue_fails_the_shape_check(monkeypatch):
    # 1e-7 * g*N*(T/g)**3 on the oracle's revenue: off its quadratic pieces
    # by up to about 5e-9 of their values, on every recovery set.
    real = oracle.static_bottleneck_costs

    def cubic(params, toll):
        outcome, cost = real(params, toll)
        gap = params.cost_gap
        bent = cost.revenue + 1e-7 * gap * params.total_demand * (toll / np.where(gap > 0, gap, 1.0)) ** 3
        return outcome, dataclasses.replace(cost, revenue=bent)

    monkeypatch.setattr(oracle, "static_bottleneck_costs", cubic)
    recovery = verify.optimizer_recovery_suite(43, 500)
    shape = [message for message in recovery.failures if "off its quadratic pieces" in message]
    assert len(shape) == 500
    assert shape[0] == "case 0: oracle flat revenue off its quadratic pieces: residual 2.326e-09"
    bounds = verify.bound_property_suite(44, 1000)
    assert any("oracle flat revenue off its quadratic pieces" in message for message in bounds.failures)


def test_a_scenario_reports_the_flat_shape_once_a_point(monkeypatch):
    # Recovery and the guarantees both read the scenario's one flat
    # certificate; a cubic term in the oracle's revenue fails its shape once
    # at each checked point, not once in each check.
    real = oracle.static_bottleneck_costs

    def cubic(params, toll):
        outcome, cost = real(params, toll)
        return outcome, dataclasses.replace(cost, revenue=cost.revenue + 1e-3 * params.total_demand * toll**3)

    monkeypatch.setattr(oracle, "static_bottleneck_costs", cubic)
    bay = builtin_scenario("bay_bridge")
    result = verify.scenario_suite(bay)
    shape = "oracle flat revenue off its quadratic pieces"
    tags = [message.partition(":")[0] for message in result.failures if shape in message]
    assert len(tags) == len(set(tags)) == len(bay.eta_sweep)


def test_dense_grid_catches_an_optimum_a_fraction_of_a_step_off(monkeypatch):
    # No certified candidate can beat a true maximum, so a toll a quarter step of
    # a 2000-point grid below the band-top optimum fails, as it failed the dense
    # grid that certified the optimum before the shape certificate.
    params = builtin_scenario("bay_bridge").params(1.5)
    block = ParamsBlock.stack([params])
    assert verify._check_guarantees(block, ["eta=1.5"], oracle.flat_certificate(block))[1] == []
    real = bn.static_revenue_optimal_toll
    step = params.cost_gap / (2000 - 1)

    def shifted(p):
        toll = real(p)[0] - 0.25 * step
        return toll, bn.static_system_cost(p, toll)

    monkeypatch.setattr(bn, "static_revenue_optimal_toll", shifted)
    _, failures = verify._check_guarantees(block, ["eta=1.5"], oracle.flat_certificate(block))
    assert len(failures) == 1
    assert failures[0][1].startswith("eta=1.5: certified revenue 5541.8182 beats closed optimum 5541.")


def test_dense_grid_fault_past_the_first_chunk_keeps_its_tag(monkeypatch):
    # Set 17 of a 20-set block, past the first 15-set chunk of the dense grid
    # that certified the optimum before the shape certificate: its low-band
    # optimum moves a quarter step of a 2000-point grid below g.
    rng = random.Random(3)
    sets = [verify.sample_params(rng, "low") for _ in range(20)]
    target = sets[17].total_demand
    real = bn.static_revenue_optimal_toll

    def shifted(p):
        toll = real(p)[0]
        quarter_step = 0.25 * p.cost_gap / (2000 - 1)
        toll = np.where(p.total_demand == target, toll - quarter_step, toll)
        return toll, bn.static_system_cost(p, toll)

    monkeypatch.setattr(bn, "static_revenue_optimal_toll", shifted)
    block = ParamsBlock.stack(sets)
    _, failures = verify._check_guarantees(block, [f"case {i}" for i in range(20)], oracle.flat_certificate(block))
    assert failures == [(17, "case 17: certified revenue 557.01695 beats closed optimum 556.99869")]


BOUND_LINE = (
    "[{}] performance-bound properties (revenue floors, 2x cost bound, exact corner): "
    "{} draws; smallest revenue-bound margin {}"
)


@pytest.mark.parametrize(
    "seed, n_cases, margin",
    [(5, 1, "1.749e-02"), (5, 513, "4.256e-04"), (3, 1025, "2.547e-04"), (0, 0, "inf")],
)
def test_block_edges_report_the_per_draw_line(seed, n_cases, margin):
    # One draw, one past a block, and two blocks and one: the lines the
    # per-draw check printed for these seeds.
    assert verify.BLOCK == 512
    result = verify.bound_property_suite(seed, n_cases)
    assert result.line() == BOUND_LINE.format("PASS", n_cases, margin)


def _nth_draw(seed, index):
    rng = random.Random(seed)
    return [verify.sample_params(rng) for _ in range(index + 1)][index]


def test_fault_past_the_first_block_keeps_its_global_tag(monkeypatch):
    # Draw 600 of seed 5 sits in the second block; its dynamic revenue is tripled.
    target = _nth_draw(5, 600).total_demand
    real = bn._trapezoid_cost

    def tripled_at_target(params, fraction):
        cost = real(params, fraction)
        revenue = np.where(params.total_demand == target, 3 * cost.revenue, cost.revenue)
        return dataclasses.replace(cost, revenue=revenue)

    monkeypatch.setattr(bn, "_trapezoid_cost", tripled_at_target)
    result = verify.bound_property_suite(5, 700)
    # The per-draw check's line and messages for the same planted fault.
    assert result.line() == BOUND_LINE.format("FAIL", 700, "-3.821e-01")
    assert result.failures == [
        "case 600: revenue ratio 0.284570 under the 1/2 floor",
        "case 600: revenue ratio 0.284570 below bound 0.666667 (mixed_high)",
    ]


def test_corner_fault_past_the_first_block_keeps_its_global_tag(monkeypatch):
    # 6000 draws give 600 corner draws; corner draw 530 stops reporting its exact ratio.
    rng = random.Random(5)
    for _ in range(6000):
        verify.sample_params(rng)
    for _ in range(531):
        target = verify.sample_params(rng).total_demand
        rng.uniform(1.01, 3.0)
    real = bn.performance_bounds

    def dropped_at_target(params):
        report = real(params)
        exact = np.where(params.total_demand == target, math.nan, report.exact_sc_ratio)
        return dataclasses.replace(report, exact_sc_ratio=exact)

    monkeypatch.setattr(bn, "performance_bounds", dropped_at_target)
    result = verify.bound_property_suite(5, 6000)
    assert result.line() == BOUND_LINE.format("FAIL", 6000, "5.475e-05")
    assert result.failures == ["exact-ratio case 530: exact corner ratio not reported"]


def _bits(values) -> list[int]:
    return np.ascontiguousarray(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("regime", [None, "low", "mid", "high"])
@pytest.mark.parametrize("n", [1, 511, 513])
@pytest.mark.parametrize("seed", [1, 7, 44])
def test_block_draws_equal_one_set_draws(seed, n, regime):
    # The same stream, read in the same order, gives the same sets bit for bit
    # and leaves the stream at the same place.
    one_by_one, blocked = random.Random(seed), random.Random(seed)
    want = [verify.sample_params(one_by_one, regime) for _ in range(n)]
    got = verify.sample_block(blocked, n, regime)
    for field in dataclasses.fields(BottleneckParams):
        assert _bits(getattr(got, field.name)) == _bits([getattr(p, field.name) for p in want])
    assert blocked.random() == one_by_one.random()


def test_every_block_draw_is_a_valid_congested_set():
    block = verify.sample_block(random.Random(9), 3000)
    names = [field.name for field in dataclasses.fields(BottleneckParams)]
    for row in zip(*(getattr(block, name).tolist() for name in names)):
        params = BottleneckParams(*row)  # validates every field
        assert params.capacity < params.arrival_rate
        assert params.cost_gap >= 0


def _targets(draws, cases):
    return [draws[case].total_demand for case in cases]


def _two_steps(params, span):
    """Two steps of the 10 000-point grid that searched the optima before the shape certificates."""
    return 2 * (span / (10_000 - 1))


@pytest.mark.parametrize(
    "optimum, messages",
    [
        (
            "toll",
            [
                "case 5: oracle revenue at closed toll 6.7120125: 29501.81913 vs certified max "
                "29501.82185, rel gap 9.213e-08",
                "case 517: oracle revenue at closed toll 2.8102094: 0 vs certified max 9799.448324, "
                "rel gap 1.000e+00",
            ],
        ),
        (
            "fraction",
            [
                "case 5: trapezoid curve at closed fraction 0.00020002: 43554.77064 vs certified max "
                "43555.48133, rel gap 1.632e-05",
                "case 5: closed trapezoid revenue at fraction 0.00020002: 43554.77064 vs certified max "
                "43555.48133, rel gap 1.632e-05",
                "case 517: trapezoid curve at closed fraction 0.38536536: 11102.55861 vs certified max "
                "11102.55875, rel gap 1.242e-08",
                "case 517: closed trapezoid revenue at fraction 0.38536536: 11102.55861 vs certified max "
                "11102.55875, rel gap 1.242e-08",
            ],
        ),
    ],
)
def test_recovery_catches_an_optimum_two_steps_off(optimum, messages, monkeypatch):
    # Case 517 lies past the first block; case 5's optimum lies at the top of
    # its fraction band, case 517's inside it.
    assert verify.BLOCK <= 517
    rng = random.Random(3)
    targets = _targets([verify.sample_params(rng) for _ in range(518)], (5, 517))
    if optimum == "toll":
        real_toll = bn.static_revenue_optimal_toll

        def planted(params):
            toll, flat = real_toll(params)
            shifted = toll + _two_steps(params, params.cost_gap)
            return np.where(np.isin(params.total_demand, targets), shifted, toll), flat

        monkeypatch.setattr(bn, "static_revenue_optimal_toll", planted)
    else:
        real_fractions = bn._flat_fractions

        def planted(params):
            f_star, f_so = real_fractions(params)
            shifted = f_star + _two_steps(params, 1.0 - f_so)
            return np.where(np.isin(params.total_demand, targets), shifted, f_star), f_so

        monkeypatch.setattr(bn, "_flat_fractions", planted)
    result = verify.optimizer_recovery_suite(3, 520)
    assert not result.ok
    assert result.failures == messages


def test_oracle_fault_past_the_first_block_keeps_its_global_tag(monkeypatch):
    # Cases 3 and 555 of seed 4 get a schedule cost 1e-5 too high; the messages
    # are those the one-toll-at-a-time check gave for the same fault.  At case
    # 555's first toll the schedule cost (0.018 h) lies below the transit floor,
    # and the schedule's own floor, 1.5e-5*N*W, keeps its gap at 1e-5.
    rng = random.Random(4)
    draws = []
    for _ in range(556):
        draws.append(verify.sample_params(rng))
        lo, hi = bn.feasible_toll_band(draws[-1])
        for _ in range(3 if hi > 0 else 2):
            rng.random()
    targets = _targets(draws, (3, 555))
    real = bn.static_system_cost

    def skewed(params, toll):
        cost = real(params, toll)
        hit = np.isin(params.total_demand, targets)
        return dataclasses.replace(cost, schedule=np.where(hit, cost.schedule * (1 + 1e-5), cost.schedule))

    monkeypatch.setattr(bn, "static_system_cost", skewed)
    result = verify.oracle_agreement_suite(4, 600)
    assert result.line().endswith("600 parameter sets, worst rel gap 1.000e-05")
    assert result.failures == [
        "case 3 toll=7.16142 schedule: 408.777002 vs 408.7810897, rel gap 1.000e-05",
        "case 3 toll=3.10723 schedule: 2541.020328 vs 2541.045738, rel gap 1.000e-05",
        "case 555 toll=1.81351 schedule: 0.01795090434 vs 0.01795108385, rel gap 1.000e-05",
        "case 555 toll=0.852348 schedule: 710.2628049 vs 710.2699075, rel gap 1.000e-05",
    ]


# The first draws of seed 44, one per regime argument, as sample_params gave
# them when it drew one set at a time (float.hex of the seven fields).
SEED_44_DRAWS = {
    None: ["0x1.1f7b734c8fcebp+12", "0x1.0697469d3da91p+10", "0x1.29f202475c9f7p+9",
           "0x1.4b6f164868cc8p-2", "0x1.05402c840d410p+0", "0x1.658c0b591e4e0p-4",
           "0x1.806b6c476b08dp+0"],
    "low": ["0x1.4064fdf82d951p+9", "0x1.640659be304f9p+7", "0x1.09b5cbf8285ccp+7",
            "0x1.a5fa567e2375fp-2", "0x1.2a178ce02ce9ap+1", "0x1.c5e2c5e6e2740p+0",
            "0x1.6512f0e69c042p+2"],
    "mid": ["0x1.2b6dd62f07a7ap+13", "0x1.27c6eebacb2e4p+12", "0x1.f7dc668fe164dp+10",
            "0x1.9775e91db3f1cp-2", "0x1.9e2f567d56f0cp-1", "0x1.88757426b9f56p+0",
            "0x1.fbb307640ffbap+1"],
    "high": ["0x1.18953f8c30652p+11", "0x1.d927ccbb8ec1ep+8", "0x1.73c95c3ea60bbp+7",
             "0x1.8cf156183c934p-1", "0x1.3a20c736c8ca8p+0", "0x1.089d7ea50b5bcp+0",
             "0x1.26700bbbda399p+4"],
}


def test_one_set_draws_keep_their_stream():
    rng = random.Random(44)
    for regime, want in SEED_44_DRAWS.items():
        params = verify.sample_params(rng, regime)
        assert [getattr(params, f.name).hex() for f in dataclasses.fields(params)] == want


def test_scenario_failures_come_sweep_point_by_sweep_point(monkeypatch):
    # Oracle, recovery and urban faults at every sweep point: the scenario's
    # block checks give the failures in the order the per-point checks gave.
    real_cost, real_toll, real_urban = bn.static_system_cost, bn.static_revenue_optimal_toll, mfd.static_system_cost

    def skewed_schedule(params, toll):
        cost = real_cost(params, toll)
        return dataclasses.replace(cost, schedule=cost.schedule * (1 + 1e-5))

    def shifted_toll(params):
        toll, flat = real_toll(params)
        return toll + _two_steps(params, params.cost_gap), flat

    def skewed_queue(params, net, toll):
        cost = real_urban(params, net, toll)
        return dataclasses.replace(cost, queuing=cost.queuing * (1 + 1e-6))

    monkeypatch.setattr(bn, "static_system_cost", skewed_schedule)
    monkeypatch.setattr(bn, "static_revenue_optimal_toll", shifted_toll)
    monkeypatch.setattr(mfd, "static_system_cost", skewed_queue)
    result = verify.scenario_suite(builtin_scenario("nyc", eta_sweep=(4.0, 9.0)))
    assert result.line() == "[FAIL] scenario suite (nyc): 2 sweep points, worst rel gap 1.000e-05"
    assert result.failures == [
        "eta=4 toll=0 schedule: 75483.71062 vs 75484.46545, rel gap 1.000e-05",
        "eta=4 toll=0.7375 schedule: 18870.92765 vs 18871.11636, rel gap 1.000e-05",
        "eta=4: oracle revenue at closed toll 1.475295: 0 vs certified max 331875, rel gap 1.000e+00",
        "eta=4 toll=0.7375 queuing: 146792.6552 vs 146792.802, rel gap 1.000e-06",
        "eta=9 toll=0 schedule: 656519.6273 vs 656526.1925, rel gap 1.000e-05",
        "eta=9 toll=2.175 schedule: 164129.9068 vs 164131.5481, rel gap 1.000e-05",
        "eta=9: oracle revenue at closed toll 3.7971325: 1000026.788 vs certified max 1000026.84, "
        "rel gap 5.253e-08",
        "eta=9 toll=2.175 queuing: 390532.7853 vs 390533.1758, rel gap 1.000e-06",
    ]


@pytest.mark.parametrize(
    "scenario",
    [
        dataclasses.replace(builtin_scenario("bay_bridge"), capacity=20_000.0),
        builtin_scenario("bay_bridge", eta_sweep=(0.5, 0.6)),
    ],
    ids=["uncongested", "all-transit"],
)
def test_a_scenario_with_no_point_checked_is_a_vacuous_pass(scenario):
    # Every point is skipped: capacity above the arrival rate, or a negative gap.
    result = verify.scenario_suite(scenario)
    assert result.ok and result.failures == []
    assert result.line() == (
        f"[PASS] scenario suite (bay_bridge): {len(scenario.eta_sweep)} sweep points, none "
        "congested with a nonnegative gap: vacuous pass (warning: nothing was checked)"
    )


def test_a_scenario_names_the_points_it_leaves_unchecked():
    checked = verify.scenario_suite(builtin_scenario("bay_bridge", eta_sweep=(1.5, 2.0)))
    result = verify.scenario_suite(builtin_scenario("bay_bridge", eta_sweep=(0.5, 1.5, 0.6, 2.0)))
    assert result.ok and result.worst == checked.worst
    assert result.detail == (
        f"4 sweep points, worst rel gap {checked.worst:.3e}; "
        "not checked: eta=0.5 (all transit), eta=0.6 (all transit)"
    )
