import dataclasses
import math
import random
import sys
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from tollgap import BottleneckParams, DomainError, Regime, oracle, verify
from tollgap import bottleneck as bn
from tollgap.core import ParamsBlock, classify_regime, regime_thresholds
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
        assert classify_regime(p) is Regime.MIXED_LOW
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
        toll, cost = bn.static_revenue_optimal_toll(p)
        assert toll == pytest.approx(0.11545454545454548)
        assert cost.revenue == pytest.approx(5541.818181818182)
        assert cost == bn.static_system_cost(p, toll)

    def test_mid_regime_interior(self):
        toll, _ = bn.static_revenue_optimal_toll(BAY.params(12.15151515))
        assert toll == pytest.approx(9.429931876125792)

    def test_high_regime_band_bottom(self):
        p = BAY.params(16.0)
        toll, _ = bn.static_revenue_optimal_toll(p)
        assert toll == pytest.approx(p.cost_gap - bn.max_wait_car_only(p), rel=1e-12)

    def test_uncongested(self):
        p = BottleneckParams(10, 1, 2, 0.5, 2.0, 0.5, 1.0)
        toll, cost = bn.static_revenue_optimal_toll(p)
        assert (toll, cost.revenue) == (0.5, 5.0)

    def test_all_transit(self):
        p = BottleneckParams(10, 2, 1, 0.5, 2.0, 0.5, 0.4)
        toll, cost = bn.static_revenue_optimal_toll(p)
        assert (toll, cost.revenue) == (0.0, 0.0)


class TestDynamicRevenue:
    def test_full_flat_fraction(self):
        p = BAY.params(2.0)
        want = p.cost_gap * p.total_demand * p.capacity / p.arrival_rate
        assert bn._trapezoid_cost(p, 1.0).revenue == pytest.approx(want, rel=1e-12)

    def test_nyc_untolled_fraction_value(self):
        p = NYC.params(18.0)
        assert bn._trapezoid_cost(p, 0.020834).revenue == pytest.approx(4_241_658, rel=1e-4)

    def test_zero_fraction_zero_gap_is_negative(self):
        p = with_gap(NYC.params(1.5), 0.0)
        want = -(p.total_demand**2) / (2 * p.capacity) * p.schedule_factor
        assert bn._trapezoid_cost(p, 0.0).revenue == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("capacity", [2.0, 1.0])
    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    def test_no_queue_revenue_is_the_designs(self, capacity, fraction):
        # With mu >= lam every user drives and pays the gap, at any fraction.
        p = BottleneckParams(10, 1, capacity, 0.5, 2.0, 0.5, 1.0)
        revenue = bn._trapezoid_cost(p, fraction).revenue
        assert revenue == bn.dynamic_revenue_optimal(p).revenue == p.cost_gap * p.total_demand == 5.0

    def test_optimal_nyc_18(self):
        design = bn.dynamic_revenue_optimal(NYC.params(18.0))
        assert design.flat_fraction == pytest.approx(0.26561859631147566)
        assert design.revenue == pytest.approx(4_503_995, rel=1e-4)
        # Closed-form optimum equals the curve evaluated at the optimal fraction.
        curve = bn._trapezoid_cost(NYC.params(18.0), design.flat_fraction).revenue
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

    def test_schedule_mirrors_the_untolled_wait_profile(self):
        # Wherever g <= W_max, the breakpoints are the untolled equilibrium's window.
        rng = random.Random(11)
        drawn = [verify.sample_params(rng) for _ in range(300)]
        presets = [s.params(eta) for s in (BAY, NYC) for eta in s.eta_sweep]
        uncongested = BottleneckParams(10, 1, 2, 0.5, 2.0, 0.5, 1.0)  # both [0, 0, N/lam, N/lam]
        sets = [p for p in drawn + presets if 0 <= p.cost_gap <= bn.max_wait_car_only(p)]
        assert len(sets) > 100
        for p in sets + [uncongested]:
            policy = bn.dynamic_so_design(p).policy
            untolled = bn.static_equilibrium(p, 0.0)
            for name in ("start", "peak_start", "peak_end", "end"):
                assert getattr(policy, name) == pytest.approx(getattr(untolled, name), rel=1e-12)

    def test_negative_gap_is_domain_error(self):
        p = BAY.params(1.0)
        assert p.cost_gap < 0
        for design in (bn.dynamic_revenue_optimal, bn.dynamic_so_design):
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
        cost = bn.dynamic_revenue_optimal(p).system_cost
        assert cost == pytest.approx(122472.641527881)  # frozen component sum
        # The benchmark ratio was computed with the unrounded free-flow calibration, hence 1e-5.
        assert cost / bn.dynamic_so_design(p).system_cost == pytest.approx(1.00015769, abs=1e-5)

    def test_dynamic_ro_cost_zero_gap(self):
        p = with_gap(BAY.params(1.5), 0.0)
        assert bn.dynamic_revenue_optimal(p).system_cost == pytest.approx(
            p.transit_cost * p.total_demand, rel=1e-12
        )

    def test_optimal_cost_branches(self):
        p = BAY.params(1.5)
        assert bn.dynamic_so_design(p).system_cost == pytest.approx(122453.20137108791)
        high = BAY.params(16.0)
        assert bn.dynamic_so_design(high).system_cost == pytest.approx(158966.1733615222)
        flat = with_gap(p, 0.0)
        assert bn.dynamic_so_design(flat).system_cost == pytest.approx(
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
            assert bn.dynamic_so_design(p).system_cost == pytest.approx(want, rel=1e-13), case

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
        assert cost == bn.static_system_cost(p, toll)
        assert cost.total / bn.dynamic_so_design(p).system_cost == pytest.approx(1.78071480, abs=1e-3)

    def test_band_top_before_crossover(self):
        p = BAY.params(8.40909091)
        toll, cost = bn.static_sc_optimal_toll(p)
        assert toll == pytest.approx(p.cost_gap, rel=1e-9)
        assert cost.total / bn.dynamic_so_design(p).system_cost == pytest.approx(1.75844216, abs=1e-3)


class TestPerformanceBounds:
    def test_low_regime_bound(self):
        report = bn.performance_bounds(BAY.params(1.5))
        assert classify_regime(BAY.params(1.5)) is Regime.MIXED_LOW
        assert report.revenue_ratio_lower_bound == pytest.approx(0.8641975308641976)
        assert report.sc_ratio_upper_bound == 2.0

    def test_high_regime_bound(self):
        report = bn.performance_bounds(BAY.params(20.0))
        assert classify_regime(BAY.params(20.0)) is Regime.MIXED_HIGH
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


def _every_regime(seed: int) -> list[BottleneckParams]:
    """Seeded sets over all five regimes: zero and subnormal gaps, ``mu == lam``, the exact corner."""
    rng = random.Random(seed)
    sets = [verify.sample_params(rng, band) for band in ("low", "mid", "high") for _ in range(12)]
    for _ in range(6):
        p = verify.sample_params(rng)
        corner_gap = 2.0 * regime_thresholds(p)[0] * (2.0 * p.arrival_rate - p.capacity) / p.capacity
        sets += [
            dataclasses.replace(p, car_freeflow_cost=0.0, transit_cost=corner_gap),
            dataclasses.replace(p, car_freeflow_cost=p.transit_cost + rng.uniform(0.01, 2.0)),
            dataclasses.replace(p, capacity=p.arrival_rate * rng.uniform(1.0, 2.0)),
            dataclasses.replace(p, capacity=p.arrival_rate),
            dataclasses.replace(p, transit_cost=p.car_freeflow_cost),
            dataclasses.replace(p, car_freeflow_cost=0.0, transit_cost=sys.float_info.min / 4),
        ]
    return sets


def _band_edges(sets: list[BottleneckParams]) -> list[BottleneckParams]:
    """Each congested set with its gap exactly at ``low`` and at ``high``, and with ``mu/lam = 2/3``."""
    edges = []
    for p in sets:
        if p.cost_gap >= 0 and p.capacity < p.arrival_rate:
            low, high = regime_thresholds(p)
            edges += [dataclasses.replace(p, car_freeflow_cost=0.0, transit_cost=t) for t in (low, high)]
            edges.append(dataclasses.replace(p, arrival_rate=3.0, capacity=2.0))
    return edges


def _tolls(rng: random.Random, p: BottleneckParams) -> list[float]:
    """Below the band, inside it, at the gap and above it (only the last two when empty)."""
    lo, hi = bn.feasible_toll_band(p)
    inside = [rng.uniform(0.0, lo), rng.uniform(lo, hi)] if hi >= 0 else []
    return [*inside, max(hi, 0.0), max(hi, 0.0) + rng.uniform(0.01, 1.0)]


def _assert_bitwise(block_value, scalar_values) -> None:
    """The block's values equal the scalar calls' bit for bit, with None read as NaN."""
    want = np.array([math.nan if v is None else v for v in scalar_values], dtype=float)
    got = np.ascontiguousarray(np.broadcast_to(np.asarray(block_value, dtype=float), want.shape))
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


class TestBlockKernels:
    """A kernel on a block gives, at every index, the scalar call's result, with no warning."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    SETS = _every_regime(17)

    def test_draws_cover_every_regime(self):
        assert {classify_regime(p) for p in self.SETS} == set(Regime)
        assert any(p.transit_cost != p.car_freeflow_cost and p.cost_gap == 0 for p in self.SETS)
        congested = [p for p in self.SETS if p.cost_gap >= 0 and p.capacity < p.arrival_rate]
        assert any(bn.performance_bounds(p).exact_sc_ratio is not None for p in congested)
        assert any(bn.performance_bounds(p).sc_ratio_upper_bound is None for p in congested)

    def test_flat_toll(self):
        rng = random.Random(3)
        pairs = [(p, toll) for p in self.SETS for toll in _tolls(rng, p)]
        block = ParamsBlock.stack([p for p, _ in pairs])
        got = bn._flat_toll(block, np.array([toll for _, toll in pairs]))
        for field in dataclasses.fields(got):
            want = [getattr(bn._flat_toll(p, toll), field.name) for p, toll in pairs]
            _assert_bitwise(getattr(got, field.name), want)

    def test_revenue_optimal_toll_and_regime(self):
        block = ParamsBlock.stack(self.SETS)
        toll, cost = bn.static_revenue_optimal_toll(block)
        want = [bn.static_revenue_optimal_toll(p) for p in self.SETS]
        _assert_bitwise(toll, [t for t, _ in want])
        for field in dataclasses.fields(cost):
            _assert_bitwise(getattr(cost, field.name), [getattr(c, field.name) for _, c in want])
        _assert_bitwise(bn.max_wait_car_only(block), [bn.max_wait_car_only(p) for p in self.SETS])
        for got, want in zip(bn.feasible_toll_band(block), zip(*map(bn.feasible_toll_band, self.SETS))):
            _assert_bitwise(got, want)
        assert list(classify_regime(block)) == [classify_regime(p) for p in self.SETS]
        queued = [p for p in self.SETS if p.capacity < p.arrival_rate]
        block_thresholds = regime_thresholds(ParamsBlock.stack(queued))
        for got, want in zip(block_thresholds, zip(*map(regime_thresholds, queued))):
            _assert_bitwise(got, want)

    def test_trapezoid_kernels(self):
        rng = random.Random(5)
        fractions = [rng.choice([0.0, 1.0, rng.random()]) for _ in self.SETS]
        got = bn._trapezoid_cost(ParamsBlock.stack(self.SETS), np.array(fractions))
        for field in dataclasses.fields(got):
            want = [bn._trapezoid_cost(p, f) for p, f in zip(self.SETS, fractions)]
            _assert_bitwise(getattr(got, field.name), [getattr(c, field.name) for c in want])
        open_sets = [p for p in self.SETS if p.cost_gap >= 0]
        block_fractions = bn._flat_fractions(ParamsBlock.stack(open_sets))
        for got, want in zip(block_fractions, zip(*map(bn._flat_fractions, open_sets))):
            _assert_bitwise(got, want)

    def test_static_equilibrium(self):
        rng = random.Random(11)
        pairs = [(p, toll) for p in self.SETS for toll in _tolls(rng, p)]
        block = ParamsBlock.stack([p for p, _ in pairs])
        got = bn.static_equilibrium(block, np.array([toll for _, toll in pairs]))
        want = [bn.static_equilibrium(p, toll) for p, toll in pairs]
        for field in dataclasses.fields(got):
            _assert_bitwise(getattr(got, field.name), [getattr(w, field.name) for w in want])

    def test_oracle_costs(self):
        # The oracle's equilibrium rebuild: every outcome and cost field, in every
        # regime the oracle takes (a nonnegative gap), uncongested sets included.
        rng = random.Random(12)
        pairs = [(p, toll) for p in self.SETS if p.cost_gap >= 0 for toll in _tolls(rng, p)]
        assert any(p.capacity >= p.arrival_rate for p, _ in pairs)
        block = ParamsBlock.stack([p for p, _ in pairs])
        outcome, cost = oracle.static_bottleneck_costs(block, np.array([toll for _, toll in pairs]))
        want = [oracle.static_bottleneck_costs(p, toll) for p, toll in pairs]
        for got, k in ((outcome, 0), (cost, 1)):
            for field in dataclasses.fields(got):
                _assert_bitwise(getattr(got, field.name), [getattr(w[k], field.name) for w in want])
        # And it agrees with the closed forms, mu == lam included.
        closed = bn._flat_toll(block, np.array([toll for _, toll in pairs]))
        for field in dataclasses.fields(cost):
            got, want = getattr(cost, field.name), getattr(closed, field.name)
            assert np.allclose(got, want, rtol=1e-9, atol=1e-6 * block.total_demand)

    def test_performance_bounds(self):
        congested = [p for p in self.SETS if p.cost_gap >= 0 and p.capacity < p.arrival_rate]
        congested += _band_edges(congested)
        got = bn.performance_bounds(ParamsBlock.stack(congested))
        want = [bn.performance_bounds(p) for p in congested]
        assert [field.name for field in dataclasses.fields(got)] == [
            "revenue_ratio_lower_bound",
            "sc_ratio_upper_bound",
            "exact_sc_ratio",
        ]
        for field in dataclasses.fields(got):
            _assert_bitwise(getattr(got, field.name), [getattr(r, field.name) for r in want])
        # The floor is the band's, and the band is classify_regime's, ties included.
        for p, report in zip(congested, want):
            ratio, (low, _) = p.capacity / p.arrival_rate, regime_thresholds(p)
            band = classify_regime(p)
            if band is Regime.MIXED_LOW:
                floor = 2.0 / (3.0 - ratio)
            elif band is Regime.MIXED_MID:
                floor = min((2.0 + low / p.cost_gap) / 4.0, 1.0 / (2.0 * (1.0 - ratio)))
            else:
                floor = 2.0 / 3.0
            assert report.revenue_ratio_lower_bound == floor

    def test_sc_optimal_toll(self):
        sets = self.SETS + _band_edges(self.SETS)
        edges = {classify_regime(p) for p in sets if p.cost_gap in regime_thresholds(p)}
        assert edges == {Regime.MIXED_LOW, Regime.MIXED_MID}  # ties go to the lower band
        assert any(p.capacity / p.arrival_rate == 2.0 / 3.0 for p in sets)
        open_sets = [p for p in sets if p.cost_gap >= 0]
        toll, cost = bn.static_sc_optimal_toll(ParamsBlock.stack(open_sets))
        want = [bn.static_sc_optimal_toll(p) for p in open_sets]
        _assert_bitwise(toll, [t for t, _ in want])
        for field in dataclasses.fields(cost):
            _assert_bitwise(getattr(cost, field.name), [getattr(c, field.name) for _, c in want])
        with pytest.raises(DomainError):
            bn.static_sc_optimal_toll(ParamsBlock.stack(sets))

    def test_a_block_is_in_a_domain_only_whole(self):
        block = ParamsBlock.stack(self.SETS)
        with pytest.raises(DomainError):
            bn.performance_bounds(block)
        with pytest.raises(DomainError):
            bn._flat_fractions(block)
        with pytest.raises(DomainError):
            bn._flat_toll(block, np.full(len(self.SETS), -1.0))
        with pytest.raises(DomainError):
            bn.static_equilibrium(block, np.full(len(self.SETS), -1.0))
        with pytest.raises(DomainError):
            oracle.static_bottleneck_costs(block, np.zeros(len(self.SETS)))
