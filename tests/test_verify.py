"""The verification suites: seed robustness and the urban guarantee guard."""

import dataclasses

import pytest

from tollgap import bottleneck as bn
from tollgap import mfd, verify


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
