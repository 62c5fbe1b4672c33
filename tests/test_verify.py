"""The verification suites: seed robustness and planted faults that each check must catch."""

import dataclasses
import math

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
        if toll != params.cost_gap:
            drawn.append(params)
            return cost
        return dataclasses.replace(
            cost, **{f.name: 3.0 * getattr(cost, f.name) for f in dataclasses.fields(cost)}
        )

    monkeypatch.setattr(mfd, "static_system_cost", tripled_at_gap)
    result = verify.mfd_agreement_suite(0, 15)
    flagged = [f for f in result.failures if "top-of-band system cost over the 2x guarantee" in f]
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
    assert any("queuing quadrature gap" in f for f in result.failures)


def test_nyc_scenario_checks_the_urban_queuing_cost(monkeypatch):
    # The scenario suite runs the same urban check as the random urban suite.
    real = mfd.static_system_cost

    def skewed_queue(params, net, toll):
        cost = real(params, net, toll)
        return dataclasses.replace(cost, queuing=cost.queuing * (1 + 1e-6))

    monkeypatch.setattr(mfd, "static_system_cost", skewed_queue)
    result = verify.scenario_suite(builtin_scenario("nyc"))
    assert not result.ok
    assert any("queuing quadrature gap" in f for f in result.failures)


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


def _nan_field(real, name):
    """``real`` with one field of its dataclass result replaced by NaN."""
    return lambda *args: dataclasses.replace(real(*args), **{name: math.nan})


def test_nan_bottleneck_queuing_fails_oracle_agreement(monkeypatch):
    monkeypatch.setattr(bn, "static_system_cost", _nan_field(bn.static_system_cost, "queuing"))
    result = verify.oracle_agreement_suite(42, 50)
    assert not result.ok
    assert all(" queuing: oracle " in f for f in result.failures)


def test_nan_urban_revenue_fails_urban_agreement(monkeypatch):
    monkeypatch.setattr(mfd, "static_revenue", lambda params, net, toll: math.nan)
    result = verify.mfd_agreement_suite(1, 30)
    assert not result.ok
    assert any("urban revenue quadrature gap nan" in f for f in result.failures)


def test_nan_dynamic_revenue_fails_bound_properties(monkeypatch):
    planted = _nan_field(bn.dynamic_revenue_optimal, "revenue")
    monkeypatch.setattr(bn, "dynamic_revenue_optimal", planted)
    result = verify.bound_property_suite(44, 200)
    assert not result.ok
    assert any("dynamic optimum below flat optimum" in f for f in result.failures)
