"""The verification suites: seed robustness and planted faults that each check must catch."""

import dataclasses
import math
import random

import numpy as np
import pytest

from tollgap import bottleneck as bn
from tollgap import mfd, verify
from tollgap.calibration import builtin_scenario


@pytest.mark.parametrize("seed", range(5))
def test_suites_pass_for_any_seed(seed):
    # Default tolerances, case counts well above the CLI's per-suite shares.
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


@pytest.mark.parametrize("piece", ["transit", "car_freeflow"])
def test_urban_mode_split_pieces_are_compared(piece, monkeypatch):
    # Every urban cost ratio sums the transit and car pieces, so both suites
    # compare them with the oracle too.
    real = mfd.static_system_cost

    def skewed(params, net, toll):
        cost = real(params, net, toll)
        return dataclasses.replace(cost, **{piece: getattr(cost, piece) * (1 + 1e-6)})

    monkeypatch.setattr(mfd, "static_system_cost", skewed)
    for result in (verify.mfd_agreement_suite(0, 15), verify.scenario_suite(builtin_scenario("nyc"))):
        assert not result.ok
        assert any(f" {piece}: " in f for f in result.failures)


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


def test_dense_grid_catches_an_optimum_a_fraction_of_a_step_off(monkeypatch):
    # No grid point can beat a true maximum, so a toll a quarter grid step below
    # the band-top optimum fails, although a step's Lipschitz slack would cover it.
    params = builtin_scenario("bay_bridge").params(1.5)
    assert verify._check_guarantees([params], ["eta=1.5"])[1] == []
    real = bn.static_revenue_optimal_toll
    step = params.cost_gap / (verify.ARGMAX_GRID - 1)

    def shifted(p):
        toll = real(p)[0] - 0.25 * step
        return toll, bn.static_system_cost(p, toll)

    monkeypatch.setattr(bn, "static_revenue_optimal_toll", shifted)
    _, failures = verify._check_guarantees([params], ["eta=1.5"])
    assert len(failures) == 1
    assert failures[0].startswith("eta=1.5: grid revenue 5541.8182 beats closed optimum 5541.")


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
