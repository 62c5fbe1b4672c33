import math

import pytest

from tollgap import (
    BottleneckParams,
    ParameterError,
    Regime,
    TrapezoidToll,
    classify_regime,
    regime_thresholds,
)
from tollgap.calibration import builtin_scenario
from tollgap.core import CostBreakdown


def bay_params(eta: float) -> BottleneckParams:
    return builtin_scenario("bay_bridge").params(eta)


class TestBottleneckParams:
    def test_valid_roundtrip(self):
        p = BottleneckParams(70000, 14000, 9600, 0.61, 2.4, 1.7136364, 1.8290909)
        assert p.rush_length == pytest.approx(5.0)
        assert p.cost_gap == pytest.approx(0.1154545, abs=1e-6)
        assert p.schedule_factor == pytest.approx(0.61 * 2.4 / 3.01)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(total_demand=0.0),
            dict(arrival_rate=-1.0),
            dict(capacity=0.0),
            dict(early_penalty=0.0),
            dict(early_penalty=1.0),
            dict(early_penalty=1.3),
            dict(late_penalty=0.0),
            dict(car_freeflow_cost=-0.1),
            dict(transit_cost=-0.1),
            dict(transit_cost=math.inf),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        base = dict(
            total_demand=100.0,
            arrival_rate=50.0,
            capacity=30.0,
            early_penalty=0.5,
            late_penalty=2.0,
            car_freeflow_cost=1.0,
            transit_cost=2.0,
        )
        base.update(kwargs)
        with pytest.raises(ParameterError):
            BottleneckParams(**base)


class TestClassifyRegime:
    def test_bay_bridge_low(self):
        p = bay_params(1.5)
        low, high = regime_thresholds(p)
        assert low == pytest.approx(7.737843551797042)
        assert high == pytest.approx(14.830866807610994)
        assert p.cost_gap < low
        assert classify_regime(p) is Regime.MIXED_LOW

    def test_uncongested(self):
        p = BottleneckParams(10, 1, 2, 0.5, 2.0, 0.5, 1.0)
        assert classify_regime(p) is Regime.UNCONGESTED

    def test_all_transit(self):
        p = BottleneckParams(10, 2, 1, 0.5, 2.0, 0.5, 0.4)
        assert classify_regime(p) is Regime.ALL_TRANSIT

    def test_mid_and_high(self):
        base = bay_params(1.5)
        low, high = regime_thresholds(base)
        mk = lambda gap: BottleneckParams(
            base.total_demand,
            base.arrival_rate,
            base.capacity,
            base.early_penalty,
            base.late_penalty,
            base.car_freeflow_cost,
            base.car_freeflow_cost + gap,
        )
        assert classify_regime(mk((low + high) / 2)) is Regime.MIXED_MID
        assert classify_regime(mk(high * 1.5)) is Regime.MIXED_HIGH

    def test_threshold_ties_go_low(self):
        base = bay_params(1.5)
        low, high = regime_thresholds(base)
        mk = lambda gap: BottleneckParams(
            base.total_demand,
            base.arrival_rate,
            base.capacity,
            base.early_penalty,
            base.late_penalty,
            base.car_freeflow_cost,
            base.car_freeflow_cost + gap,
        )
        assert classify_regime(mk(low)) is Regime.MIXED_LOW
        assert classify_regime(mk(high)) is Regime.MIXED_MID

    def test_monotone_in_transit_cost(self):
        base = bay_params(1.5)
        order = [
            Regime.ALL_TRANSIT,
            Regime.MIXED_LOW,
            Regime.MIXED_MID,
            Regime.MIXED_HIGH,
        ]
        last = -1
        for gap in [g / 10.0 for g in range(-5, 400, 3)]:
            p = BottleneckParams(
                base.total_demand,
                base.arrival_rate,
                base.capacity,
                base.early_penalty,
                base.late_penalty,
                base.car_freeflow_cost,
                max(base.car_freeflow_cost + gap, 0.0),
            )
            idx = order.index(classify_regime(p))
            assert idx >= last
            last = idx


class TestRushWindow:
    """The desired-crossing window is [0, rush_length] on the rush clock."""

    def test_bay_bridge(self):
        assert bay_params(1.5).rush_length == 5.0

    def test_unit_window(self):
        p = BottleneckParams(7.0, 7.0, 3.0, 0.5, 2.0, 0.0, 1.0)
        assert p.rush_length == 1.0

    def test_nyc(self):
        assert builtin_scenario("nyc").params(1.5).rush_length == 5.0


class TestTollPolicies:
    def test_static_toll(self):
        from tollgap import StaticToll

        toll = StaticToll(0.25)
        assert toll.value(0.0) == toll.value(100.0) == 0.25
        with pytest.raises(ParameterError):
            StaticToll(-0.1)

    def test_trapezoid_value(self):
        toll = TrapezoidToll(
            peak=1.0, start=0.0, peak_start=2.0, peak_end=3.0, end=3.5,
            rise_slope=0.5, fall_slope=2.0,
        )
        assert toll.value(-1.0) == 0.0
        assert toll.value(0.0) == pytest.approx(0.0)
        assert toll.value(1.0) == pytest.approx(0.5)
        assert toll.value(2.5) == 1.0
        assert toll.value(3.25) == pytest.approx(0.5)
        assert toll.value(4.0) == 0.0

    def test_trapezoid_rejects_disorder(self):
        with pytest.raises(ParameterError):
            TrapezoidToll(1.0, 0.0, 2.0, 1.0, 3.0, 0.5, 2.0)

    def test_trapezoid_clamps_at_zero(self):
        # Sides that would dip negative are clamped: a toll, not a subsidy.
        toll = TrapezoidToll(1.0, 0.0, 5.0, 6.0, 7.0, 0.5, 2.0)
        assert toll.value(0.0) == 0.0
        assert toll.value(7.0) == 0.0
        assert toll.value(4.0) == pytest.approx(0.5)


def test_cost_breakdown_total_is_exact_sum():
    cb = CostBreakdown(transit=1.25, car_freeflow=2.5, queuing=0.125, schedule=0.0625, revenue=9.0)
    assert cb.total == 1.25 + 2.5 + 0.125 + 0.0625
