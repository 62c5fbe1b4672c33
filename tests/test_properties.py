"""Property-based invariants of the closed-form model, via hypothesis."""

from dataclasses import astuple, replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tollgap import BottleneckParams, Regime, TriangularMfd, classify_regime, regime_thresholds
from tollgap import bottleneck as bn
from tollgap import mfd, oracle
from tollgap.calibration import BUILTIN_SCENARIOS


@st.composite
def congested_params(draw, gap_mode: str = "any") -> BottleneckParams:
    arrival = draw(st.floats(100.0, 30000.0))
    capacity = arrival * draw(st.floats(0.1, 0.95))
    demand = arrival * draw(st.floats(0.3, 6.0))
    early = draw(st.floats(0.05, 0.95))
    late = draw(st.floats(0.1, 4.0))
    car = draw(st.floats(0.0, 3.0))
    probe = BottleneckParams(demand, arrival, capacity, early, late, car, car)
    low, high = regime_thresholds(probe)
    if gap_mode == "low":
        gap = draw(st.floats(0.0, 1.0)) * low
    elif gap_mode == "guarantee":
        gap = draw(st.floats(0.0, 1.0)) * bn.max_wait_car_only(probe)
    else:
        gap = draw(st.floats(0.0, 1.0)) * 2.5 * high
    return BottleneckParams(demand, arrival, capacity, early, late, car, car + gap)


@given(params=congested_params(), frac=st.floats(0.0, 1.0))
@settings(max_examples=200)
def test_mode_split_conserves_mass(params, frac):
    toll = frac * params.cost_gap
    out = bn.static_equilibrium(params, toll)
    assert out.total == pytest.approx(params.total_demand, rel=1e-9)
    assert min(out.n_early, out.n_late, out.n_ontime_car, out.n_transit) >= 0.0


@given(params=congested_params(), frac=st.floats(0.0, 1.5))
@settings(max_examples=200)
def test_flat_toll_readers_agree(params, frac):
    toll = frac * params.cost_gap
    cost = bn.static_system_cost(params, toll)
    out = bn.static_equilibrium(params, toll)
    assert bn.static_revenue(params, toll) == cost.revenue
    assert cost.transit == pytest.approx(params.transit_cost * out.n_transit, rel=1e-12)
    assert cost.car_freeflow == pytest.approx(params.car_freeflow_cost * out.n_car, rel=1e-12)


@given(params=congested_params(), frac=st.floats(0.0, 1.0))
@settings(max_examples=200)
def test_revenue_matches_paying_headcount(params, frac):
    lo, hi = bn.feasible_toll_band(params)
    toll = lo + frac * (hi - lo)
    out = bn.static_equilibrium(params, toll)
    want = toll * (params.total_demand - out.n_transit)
    assert bn.static_revenue(params, toll) == pytest.approx(want, rel=1e-9, abs=1e-9)


@given(params=congested_params())
@example(params=BottleneckParams(132.5, 106.0, 10.6, 0.5, 2.0, 0.0, 1.04e-322))  # subnormal gap
@settings(max_examples=200)
def test_dynamic_revenue_dominates_static(params):
    _, static = bn.static_revenue_optimal_toll(params)
    dynamic_rev = bn.dynamic_revenue_optimal(params).revenue
    assert dynamic_rev >= static.revenue * (1.0 - 1e-9)


@given(params=congested_params())
@settings(max_examples=200)
def test_revenue_ratio_respects_lower_bound(params):
    assume(params.cost_gap > 0)
    _, static = bn.static_revenue_optimal_toll(params)
    dynamic_rev = bn.dynamic_revenue_optimal(params).revenue
    assume(dynamic_rev > 0)
    report = bn.performance_bounds(params)
    ratio = static.revenue / dynamic_rev
    assert ratio >= report.revenue_ratio_lower_bound * (1.0 - 1e-9)
    assert ratio >= 0.5 * (1.0 - 1e-9)


@given(params=congested_params(gap_mode="guarantee"))
@settings(max_examples=200)
def test_cost_guarantee_in_mixed_regime(params):
    _, static = bn.static_revenue_optimal_toll(params)
    sc_opt = bn.dynamic_so_design(params).system_cost
    assert static.total <= 2.0 * sc_opt * (1 + 1e-9)
    assert bn.dynamic_revenue_optimal(params).system_cost <= 2.0 * sc_opt * (1 + 1e-9)


@given(params=congested_params())
@settings(max_examples=150)
def test_cost_continuity_across_band_edges(params):
    lo, hi = bn.feasible_toll_band(params)
    eps = 1e-9 * max(hi, 1.0)
    assume(lo > eps)
    below = bn.static_system_cost(params, lo - eps).total
    above = bn.static_system_cost(params, lo + eps).total
    assert below == pytest.approx(above, rel=1e-6)
    left = bn.static_system_cost(params, hi - eps).total
    assert left == pytest.approx(bn.static_system_cost(params, hi).total, rel=1e-6)
    _, want = oracle.static_bottleneck_costs(params, hi + eps)
    assert astuple(bn.static_system_cost(params, hi + eps)) == pytest.approx(
        astuple(want), rel=1e-9
    )


@given(params=congested_params())
@settings(max_examples=200)
def test_optimal_trapezoid_is_feasible(params):
    assume(params.cost_gap >= 0)
    policy = bn.dynamic_revenue_optimal(params).policy
    assert policy.peak == pytest.approx(params.cost_gap, rel=1e-12, abs=1e-15)
    span = policy.end - policy.start
    for k in range(21):
        t = policy.start + span * k / 20.0
        assert policy.value(t) >= -1e-12 * max(policy.peak, 1.0)


@given(
    params=congested_params(),
    bigger=st.floats(1e-6, 10.0),
)
@settings(max_examples=150)
def test_regime_monotone_in_transit_cost(params, bigger):
    order = [Regime.ALL_TRANSIT, Regime.UNCONGESTED, Regime.MIXED_LOW, Regime.MIXED_MID, Regime.MIXED_HIGH]
    shifted = BottleneckParams(
        params.total_demand,
        params.arrival_rate,
        params.capacity,
        params.early_penalty,
        params.late_penalty,
        params.car_freeflow_cost,
        params.transit_cost + bigger,
    )
    assert order.index(classify_regime(shifted)) >= order.index(classify_regime(params))


@st.composite
def low_band_network(draw) -> tuple[BottleneckParams, TriangularMfd]:
    params = draw(congested_params(gap_mode="low"))
    speed = draw(st.floats(10.0, 80.0))
    distance = draw(st.floats(1.0, 20.0))
    jam_factor = draw(st.floats(1.2, 50.0))
    critical = params.capacity * distance / speed
    return params, TriangularMfd(params.capacity, critical * jam_factor, speed, distance)


@given(case=low_band_network(), frac=st.floats(0.0, 1.0))
@example(  # a normal gap just above the smallest normal float, at toll 0
    case=(
        BottleneckParams(200, 100, 25, 0.5, 2.0, 0.0, 2.373412115741015e-308),
        TriangularMfd(25, 112.5, 10, 5),
    ),
    frac=0.0,
)
@settings(max_examples=100)
def test_network_revenue_never_exceeds_capacity_share(case, frac):
    params, net = case
    lo = mfd.static_lower_toll(params, net)
    hi = params.cost_gap
    assume(hi > lo)
    toll = lo + frac * (hi - lo)
    revenue = mfd.static_revenue(params, net, toll)
    # No flat toll can collect more than charging every user the same toll.
    assert revenue <= toll * params.total_demand * (1 + 1e-9)


@given(
    fare=st.floats(0.0, 20.0),
    walk=st.floats(0.0, 1.0),
    wait=st.floats(0.0, 1.0),
    ride=st.floats(0.0, 2.0),
    vot=st.floats(1.0, 100.0),
    eta_a=st.floats(0.0, 30.0),
    eta_b=st.floats(0.0, 30.0),
)
@settings(max_examples=200)
def test_transit_cost_affine_in_discomfort(fare, walk, wait, ride, vot, eta_a, eta_b):
    scenario = replace(
        BUILTIN_SCENARIOS["nyc"],
        value_of_time=vot,
        transit_fare=fare,
        transit_walk_time=walk,
        transit_wait_time=wait,
        transit_in_vehicle_time=ride,
    )
    za = scenario.params(eta_a).transit_cost
    zb = scenario.params(eta_b).transit_cost
    slope = walk + wait + ride
    assert zb - za == pytest.approx((eta_b - eta_a) * slope, abs=1e-12 * max(1.0, slope * 30))
