import random
from dataclasses import astuple

import pytest

from tollgap import BottleneckParams, DomainError, Regime, oracle, verify
from tollgap import bottleneck as bn
from tollgap.calibration import builtin_scenario

BAY = builtin_scenario("bay_bridge")
NYC = builtin_scenario("nyc")


def with_gap(base: BottleneckParams, gap: float) -> BottleneckParams:
    return BottleneckParams(
        base.total_demand,
        base.arrival_rate,
        base.capacity,
        base.early_penalty,
        base.late_penalty,
        base.car_freeflow_cost,
        base.car_freeflow_cost + gap,
    )


class TestMaxWait:
    def test_bay_bridge(self):
        assert bn.max_wait_car_only(BAY.params(1.5)) == pytest.approx(3.546511627906977)

    def test_no_queue_when_capacity_covers(self):
        p = BottleneckParams(10, 1, 2, 0.5, 2.0, 0.5, 1.0)
        assert bn.max_wait_car_only(p) == 0.0

    def test_vanishes_with_early_penalty(self):
        p = BottleneckParams(100, 50, 30, 1e-9, 2.0, 0.0, 1.0)
        assert bn.max_wait_car_only(p) < 1e-8


class TestStaticEquilibrium:
    def test_top_of_band_split(self):
        p = BAY.params(1.5)
        out = bn.static_equilibrium(p, p.cost_gap)
        assert out.peak_wait == 0.0
        assert out.n_transit == pytest.approx(22000.0)
        assert out.n_ontime_car == pytest.approx(48000.0)
        assert out.n_early == 0.0 and out.n_late == 0.0

    def test_gap_at_max_wait_keeps_cars(self):
        base = BAY.params(1.5)
        p = with_gap(base, bn.max_wait_car_only(base))
        out = bn.static_equilibrium(p, 0.0)
        assert out.n_transit == pytest.approx(0.0, abs=1e-9)
        assert out.peak_wait == pytest.approx(bn.max_wait_car_only(p))

    def test_half_gap_half_shoulders(self):
        base = BAY.params(1.5)
        p = with_gap(base, bn.max_wait_car_only(base) / 2.0)
        out = bn.static_equilibrium(p, 0.0)
        assert out.n_early + out.n_late == pytest.approx(p.total_demand / 2.0, rel=1e-12)

    def test_mass_conservation(self):
        p = BAY.params(3.0)
        for toll in (0.0, 0.5 * p.cost_gap, p.cost_gap):
            out = bn.static_equilibrium(p, toll)
            assert out.total == pytest.approx(p.total_demand, rel=1e-9)

    def test_above_gap_all_transit(self):
        p = BAY.params(1.5)
        out = bn.static_equilibrium(p, p.cost_gap + 0.01)
        assert out.n_transit == p.total_demand

    def test_subnormal_negative_gap_is_congested_like_the_oracle(self):
        # transit_cost < car_freeflow_cost by a subnormal amount: the gap reads as 0.
        p = BottleneckParams(70000, 14000, 9600, 0.61, 2.4, 1e-320, 0.5e-320)
        assert p.cost_gap == 0.0
        assert bn.classify_regime(p) is Regime.MIXED_LOW
        outcome, _ = oracle.static_bottleneck_costs(p, 0.0)
        assert bn.static_equilibrium(p, 0.0).n_transit == outcome.n_transit == 22000.0

    def test_rejects_negative_toll(self):
        with pytest.raises(DomainError):
            bn.static_equilibrium(BAY.params(1.5), -0.1)


class TestStaticRevenue:
    def test_top_of_band(self):
        p = BAY.params(1.5)
        assert bn.static_revenue(p, p.cost_gap) == pytest.approx(5541.818181818182)

    def test_zero_toll(self):
        assert bn.static_revenue(BAY.params(1.5), 0.0) == 0.0

    def test_band_lower_edge_everyone_pays(self):
        base = BAY.params(1.5)
        p = with_gap(base, 2.0 * bn.max_wait_car_only(base))
        lo, _ = bn.feasible_toll_band(p)
        assert lo > 0
        assert bn.static_revenue(p, lo) == pytest.approx(lo * p.total_demand, rel=1e-12)

    def test_consistent_with_equilibrium(self):
        p = BAY.params(2.5)
        for toll in (0.2 * p.cost_gap, 0.7 * p.cost_gap, p.cost_gap):
            out = bn.static_equilibrium(p, toll)
            assert bn.static_revenue(p, toll) == pytest.approx(
                toll * (p.total_demand - out.n_transit), rel=1e-9
            )


class TestStaticRevenueOptimal:
    def test_low_regime_hits_gap(self):
        p = BAY.params(1.5)
        toll, revenue = bn.static_revenue_optimal_toll(p)
        assert toll == pytest.approx(0.11545454545454548)
        assert revenue == pytest.approx(5541.818181818182)

    def test_mid_regime_interior(self):
        toll, _ = bn.static_revenue_optimal_toll(BAY.params(12.15151515))
        assert toll == pytest.approx(9.429931876125792)

    def test_high_regime_band_bottom(self):
        p = BAY.params(16.0)
        toll, _ = bn.static_revenue_optimal_toll(p)
        assert toll == pytest.approx(p.cost_gap - bn.max_wait_car_only(p), rel=1e-12)

    def test_uncongested(self):
        p = BottleneckParams(10, 1, 2, 0.5, 2.0, 0.5, 1.0)
        assert bn.static_revenue_optimal_toll(p) == (0.5, 5.0)

    def test_all_transit(self):
        p = BottleneckParams(10, 2, 1, 0.5, 2.0, 0.5, 0.4)
        assert bn.static_revenue_optimal_toll(p) == (0.0, 0.0)


class TestDynamicRevenue:
    def test_full_flat_fraction(self):
        p = BAY.params(2.0)
        want = p.cost_gap * p.total_demand * p.capacity / p.arrival_rate
        assert bn.dynamic_revenue_at_fraction(p, 1.0) == pytest.approx(want, rel=1e-12)

    def test_nyc_untolled_fraction_value(self):
        p = NYC.params(18.0)
        assert bn.dynamic_revenue_at_fraction(p, 0.020834) == pytest.approx(4_241_658, rel=1e-4)

    def test_zero_fraction_zero_gap_is_negative(self):
        p = with_gap(NYC.params(1.5), 0.0)
        want = -(p.total_demand**2) / (2 * p.capacity) * p.schedule_factor
        assert bn.dynamic_revenue_at_fraction(p, 0.0) == pytest.approx(want, rel=1e-12)

    def test_fraction_domain(self):
        with pytest.raises(DomainError):
            bn.dynamic_revenue_at_fraction(BAY.params(1.5), 1.2)

    def test_optimal_nyc_18(self):
        design = bn.dynamic_revenue_optimal(NYC.params(18.0))
        assert design.flat_fraction == pytest.approx(0.26561859631147566)
        assert design.revenue == pytest.approx(4_503_995, rel=1e-4)
        # Closed-form optimum equals the curve evaluated at the optimal fraction.
        curve = bn.dynamic_revenue_at_fraction(NYC.params(18.0), design.flat_fraction)
        assert design.revenue == pytest.approx(curve, rel=1e-12)

    def test_optimal_zero_gap(self):
        p = with_gap(BAY.params(1.5), 0.0)
        design = bn.dynamic_revenue_optimal(p)
        assert design.flat_fraction == 1.0
        assert design.revenue == 0.0

    def test_optimal_nyc_low(self):
        assert bn.dynamic_revenue_optimal(NYC.params(1.5)).revenue == pytest.approx(
            8474.09, rel=1e-5
        )

    def test_trapezoid_peaks_at_gap_and_nonnegative(self):
        for eta in (1.5, 6.0, 12.15151515, 20.0):
            p = BAY.params(eta)
            policy = bn.dynamic_revenue_optimal(p).policy
            assert policy.peak == pytest.approx(p.cost_gap)
            assert policy.value(policy.start) >= -1e-12
            assert policy.value(policy.end) >= -1e-12

    def test_trapezoid_shoulder_geometry(self):
        p = NYC.params(18.0)
        design = bn.dynamic_revenue_optimal(p)
        policy = design.policy
        shoulder_users = (1.0 - design.flat_fraction) * p.total_demand
        e, late = p.early_penalty, p.late_penalty
        want_rise = late / (e + late) * shoulder_users / p.capacity
        want_fall = e / (e + late) * shoulder_users / p.capacity
        assert policy.peak_start - policy.start == pytest.approx(want_rise, rel=1e-12)
        assert policy.end - policy.peak_end == pytest.approx(want_fall, rel=1e-12)
        assert policy.peak_end - policy.peak_start == pytest.approx(
            design.flat_fraction * p.rush_length, rel=1e-12
        )


class TestDynamicSoDesign:
    def test_nyc_18_revenue_ratio(self):
        p = NYC.params(18.0)
        so = bn.dynamic_so_design(p)
        ro = bn.dynamic_revenue_optimal(p)
        assert so.revenue / ro.revenue == pytest.approx(0.94175936, abs=1e-6)
        assert so.system_cost == pytest.approx(bn.optimal_system_cost(p), rel=1e-12)

    def test_gap_above_max_wait(self):
        base = BAY.params(1.5)
        p = with_gap(base, 2.0 * bn.max_wait_car_only(base))
        so = bn.dynamic_so_design(p)
        assert so.flat_fraction == 0.0
        want = p.cost_gap * p.total_demand - p.total_demand**2 / (
            2 * p.capacity
        ) * p.schedule_factor
        assert so.revenue == pytest.approx(want, rel=1e-12)

    def test_zero_gap(self):
        p = with_gap(BAY.params(1.5), 0.0)
        assert bn.dynamic_so_design(p).revenue == 0.0

    def test_negative_gap_is_domain_error(self):
        p = BAY.params(1.0)
        assert p.cost_gap < 0
        for design in (bn.dynamic_revenue_optimal, bn.dynamic_so_design, bn.dynamic_ro_system_cost):
            with pytest.raises(DomainError):
                design(p)


class TestSystemCosts:
    def test_zero_queue_split_cost(self):
        p = BAY.params(1.5)
        cost = bn.static_system_cost(p, p.cost_gap)
        assert cost.total == pytest.approx(122494.54545454544)
        assert cost.queuing == 0.0 and cost.schedule == 0.0

    def test_car_only_constant_below_band(self):
        p = BAY.params(16.0)
        lo, _ = bn.feasible_toll_band(p)
        c0 = bn.static_system_cost(p, 0.0)
        c1 = bn.static_system_cost(p, 0.9 * lo)
        assert c0.total == pytest.approx(283094.0803382664)
        assert c0.total == pytest.approx(c1.total, rel=1e-12)
        assert c0.transit == 0.0

    def test_everybody_indifferent_no_delay(self):
        p = with_gap(BAY.params(1.5), 0.0)
        cost = bn.static_system_cost(p, 0.0)
        assert cost.total == pytest.approx(p.car_freeflow_cost * p.total_demand, rel=1e-12)

    def test_dynamic_ro_cost_bay(self):
        p = BAY.params(1.5)
        cost = bn.dynamic_ro_system_cost(p)
        assert cost.total == pytest.approx(122472.641527881)  # frozen component sum
        assert cost.queuing == 0.0
        # The benchmark ratio was computed with the unrounded free-flow calibration, hence 1e-5.
        assert cost.total / bn.optimal_system_cost(p) == pytest.approx(1.00015769, abs=1e-5)

    def test_dynamic_ro_cost_zero_gap(self):
        p = with_gap(BAY.params(1.5), 0.0)
        assert bn.dynamic_ro_system_cost(p).total == pytest.approx(
            p.transit_cost * p.total_demand, rel=1e-12
        )

    def test_optimal_cost_branches(self):
        p = BAY.params(1.5)
        assert bn.optimal_system_cost(p) == pytest.approx(122453.20137108791)
        high = BAY.params(16.0)
        assert bn.optimal_system_cost(high) == pytest.approx(158966.1733615222)
        flat = with_gap(p, 0.0)
        assert bn.optimal_system_cost(flat) == pytest.approx(
            flat.car_freeflow_cost * flat.total_demand, rel=1e-12
        )

    def test_optimal_cost_matches_collapsed_closed_forms(self):
        # The component sum at f_so against the two collapsed expressions it replaced.
        rng = random.Random(5)
        for case in range(2000):
            p = verify.sample_params(rng)
            demand, mu, lam = p.total_demand, p.capacity, p.arrival_rate
            sf, gap, car = p.schedule_factor, p.cost_gap, p.car_freeflow_cost
            away = 1.0 - mu / lam
            if gap <= bn.max_wait_car_only(p):
                want = car * demand + away * demand * gap - away * mu / (2.0 * sf) * gap**2
            else:
                want = car * demand + sf / 2.0 * demand**2 * (1.0 / mu - 1.0 / lam)
            assert bn.optimal_system_cost(p) == pytest.approx(want, rel=1e-13), case

    def test_above_gap_is_all_transit(self):
        p = BAY.params(3.0)
        toll = 1.01 * p.cost_gap
        cost = bn.static_system_cost(p, toll)
        _, want = oracle.static_bottleneck_costs(p, toll)
        assert cost.total == pytest.approx(236536.4, rel=1e-6)
        assert cost.total == p.transit_cost * p.total_demand == want.total
        assert bn.static_equilibrium(p, toll).n_car == 0.0
        assert bn.static_revenue(p, toll) == 0.0


class TestStaticScOptimal:
    def test_coincides_with_revenue_optimal_at_low_eta(self):
        p = BAY.params(1.5)
        toll, _ = bn.static_sc_optimal_toll(p)
        assert toll == pytest.approx(p.cost_gap, rel=1e-12)

    def test_band_bottom_beyond_crossover(self):
        p = BAY.params(8.69696970)
        toll, cost = bn.static_sc_optimal_toll(p)
        assert toll == pytest.approx(p.cost_gap - bn.max_wait_car_only(p), rel=1e-9)
        assert cost / bn.optimal_system_cost(p) == pytest.approx(1.78071480, abs=1e-3)

    def test_band_top_before_crossover(self):
        p = BAY.params(8.40909091)
        toll, cost = bn.static_sc_optimal_toll(p)
        assert toll == pytest.approx(p.cost_gap, rel=1e-9)
        assert cost / bn.optimal_system_cost(p) == pytest.approx(1.75844216, abs=1e-3)


class TestPerformanceBounds:
    def test_low_regime_bound(self):
        report = bn.performance_bounds(BAY.params(1.5))
        assert report.regime is Regime.MIXED_LOW
        assert report.revenue_ratio_lower_bound == pytest.approx(0.8641975308641976)
        assert report.sc_ratio_upper_bound == 2.0

    def test_high_regime_bound(self):
        report = bn.performance_bounds(BAY.params(20.0))
        assert report.regime is Regime.MIXED_HIGH
        assert report.revenue_ratio_lower_bound == pytest.approx(2.0 / 3.0)
        assert report.sc_ratio_upper_bound is None

    def test_exact_corner_ratio(self):
        p = BottleneckParams(1000.0, 100.0, 50.0, 0.5, 2.0, 0.0, 1000.0)
        report = bn.performance_bounds(p)
        assert report.exact_sc_ratio == pytest.approx(3.0)

    def test_revenue_continuity_at_band_edges(self):
        p = BAY.params(16.0)  # band bottom strictly positive here
        lo, hi = bn.feasible_toll_band(p)
        eps = 1e-9
        assert bn.static_revenue(p, lo - eps) == pytest.approx(
            bn.static_revenue(p, lo + eps), rel=1e-9
        )
        # At the top the value is left-continuous; just above, the tie-break
        # deliberately drops revenue to zero (all users switch to transit).
        assert bn.static_revenue(p, hi - eps) == pytest.approx(
            bn.static_revenue(p, hi), rel=1e-6
        )
        assert bn.static_revenue(p, hi + eps) == 0.0

    def test_cost_continuity_at_band_edges(self):
        p = BAY.params(16.0)
        lo, hi = bn.feasible_toll_band(p)
        eps = 1e-9
        assert bn.static_system_cost(p, lo - eps).total == pytest.approx(
            bn.static_system_cost(p, lo + eps).total, rel=1e-9
        )
        # At the top the cost is left-continuous; just above, every user
        # rides transit, as in the oracle.
        assert bn.static_system_cost(p, hi - eps).total == pytest.approx(
            bn.static_system_cost(p, hi).total, rel=1e-9
        )
        _, want = oracle.static_bottleneck_costs(p, hi + eps)
        assert astuple(bn.static_system_cost(p, hi + eps)) == pytest.approx(
            astuple(want), rel=1e-9
        )
