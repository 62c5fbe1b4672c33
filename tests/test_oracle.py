import numpy as np
import pytest

from tollgap import BottleneckParams, DomainError
from tollgap import bottleneck as bn
from tollgap import mfd, oracle
from tollgap.calibration import builtin_scenario

BAY = builtin_scenario("bay_bridge")
NYC = builtin_scenario("nyc")


def car_saturated_params() -> BottleneckParams:
    # Transit so unattractive that the untolled equilibrium is car-only.
    base = BAY.params(1.5)
    return BottleneckParams(
        base.total_demand,
        base.arrival_rate,
        base.capacity,
        base.early_penalty,
        base.late_penalty,
        base.car_freeflow_cost,
        base.car_freeflow_cost + 10.0 * bn.max_wait_car_only(base),
    )


class TestSimulation:
    def test_car_only_peak_wait(self):
        params = car_saturated_params()
        trace, outcome, _ = oracle.simulate_static_bottleneck(params, 0.0, dt=1e-3)
        assert outcome.peak_wait == pytest.approx(3.546511627906977, abs=1e-6)
        assert float(trace.wait.max()) == pytest.approx(3.546511627906977, abs=1e-6)
        assert outcome.n_transit == pytest.approx(0.0, abs=1e-6)

    def test_top_of_band_degenerates_flat(self):
        params = BAY.params(1.5)
        _, outcome, cost = oracle.simulate_static_bottleneck(params, params.cost_gap, dt=1e-3)
        assert outcome.peak_wait == 0.0
        assert cost.revenue == pytest.approx(bn.static_revenue(params, params.cost_gap), rel=1e-9)

    def test_components_match_closed_forms(self):
        params = BAY.params(1.5)
        _, outcome, cost = oracle.simulate_static_bottleneck(params, 0.05, dt=1e-4)
        closed = bn.static_system_cost(params, 0.05)
        for field in ("transit", "car_freeflow", "queuing", "schedule", "revenue"):
            assert getattr(cost, field) == pytest.approx(getattr(closed, field), rel=1e-6)
        assert outcome.total == pytest.approx(params.total_demand, rel=1e-9)

    def test_refuses_coarse_grid(self):
        with pytest.raises(DomainError):
            oracle.simulate_static_bottleneck(BAY.params(1.5), 0.0, dt=1.0)

    def test_trace_invariants(self):
        params = BAY.params(2.5)
        toll = 0.3 * params.cost_gap
        trace, outcome, _ = oracle.simulate_static_bottleneck(params, toll, dt=1e-3)
        assert float(trace.wait.min()) >= -1e-12
        # Wait slopes stay in {early_penalty, -late_penalty, 0}.
        slopes = np.diff(trace.wait) / np.diff(trace.times)
        expected = np.array([params.early_penalty, -params.late_penalty, 0.0])
        off = np.abs(slopes[:, None] - expected[None, :]).min(axis=1)
        assert float(off.max()) < 1e-7
        assert np.all(trace.cum_departures <= trace.cum_arrivals + 1e-9 * params.total_demand)
        assert float(trace.cum_departures[-1]) == pytest.approx(
            params.total_demand - outcome.n_transit, rel=1e-9
        )
        ceiling = params.cost_gap + 1e-9
        assert np.all(trace.wait + trace.toll <= ceiling)


class TestGridSearches:
    def test_flat_argmax_low_regime(self):
        params = BAY.params(1.5)
        toll_hat, _ = oracle.grid_search_static(params, 10_000)
        assert toll_hat == pytest.approx(params.cost_gap, abs=1.2e-5)

    def test_flat_argmax_mid_regime(self):
        params = BAY.params(12.15151515)
        toll_hat, _ = oracle.grid_search_static(params, 10_000)
        step = params.cost_gap / 9999
        assert abs(toll_hat - 9.429931876125792) <= step

    def test_flat_argmax_zero_gap(self):
        base = BAY.params(1.5)
        params = BottleneckParams(
            base.total_demand,
            base.arrival_rate,
            base.capacity,
            base.early_penalty,
            base.late_penalty,
            base.car_freeflow_cost,
            base.car_freeflow_cost,
        )
        assert oracle.grid_search_static(params, 1000) == (0.0, 0.0)

    def test_fraction_argmax_nyc(self):
        params = NYC.params(18.0)
        frac_hat, _ = oracle.grid_search_dynamic_fraction(params, 10_000)
        assert frac_hat == pytest.approx(0.26561859631147566, abs=1e-4)

    def test_fraction_argmax_saturated(self):
        base = BAY.params(1.5)
        lam, mu = base.arrival_rate, base.capacity
        max_wait = bn.max_wait_car_only(base)
        gap = 1.1 * max_wait * max(lam / mu, lam / (lam - mu))
        params = BottleneckParams(
            base.total_demand, lam, mu, base.early_penalty, base.late_penalty,
            base.car_freeflow_cost, base.car_freeflow_cost + gap,
        )
        frac_hat, _ = oracle.grid_search_dynamic_fraction(params, 10_000)
        assert frac_hat == 0.0

    def test_rejects_tiny_grid(self):
        with pytest.raises(DomainError):
            oracle.grid_search_static(BAY.params(1.5), 10)


class TestMfdIntegration:
    def test_top_of_band(self):
        params, net = NYC.params(1.5), NYC.mfd()
        got = oracle.integrate_mfd_revenue(params, net, params.cost_gap, dt=1e-3)
        want = params.cost_gap * params.total_demand * net.max_throughput / params.arrival_rate
        assert got == pytest.approx(want, rel=1e-6)

    def test_half_toll_matches_closed_form(self):
        params, net = NYC.params(18.0), NYC.mfd()
        toll = params.cost_gap / 2.0
        got = oracle.integrate_mfd_revenue(params, net, toll, dt=1e-4)
        assert got == pytest.approx(mfd.static_revenue(params, net, toll), rel=1e-6)

    def test_many_toll_agreement_at_coarse_grid(self):
        # Randomized-property variant: 10 tolls per set at the coarser grid
        # step, with the correspondingly looser tolerance.
        from tollgap import verify

        result = verify.oracle_agreement_suite(7, 60, dt=1e-3, tolls_per_case=10, rel_tol=1e-4)
        assert result.ok, result.failures

    def test_shoulder_quadrature_matches_closed_forms(self):
        params, net = NYC.params(18.0), NYC.mfd()
        toll = 0.4 * params.cost_gap
        pieces = oracle.mfd_shoulder_quadrature(params, net, toll)
        cost = mfd.static_system_cost(params, net, toll)
        wait = params.cost_gap - toll
        flat_len = (
            params.total_demand
            - net.jam_accumulation / params.schedule_factor
            * np.log1p(wait * net.max_throughput / net.jam_accumulation)
        ) / params.arrival_rate
        queue_flat = flat_len * mfd.throughput_from_wait(net, wait) * wait
        quad_queue = pieces["queue_early"] + pieces["queue_late"]
        assert quad_queue == pytest.approx(cost.queuing - queue_flat, rel=1e-8)
        quad_sched = pieces["sched_early"] + pieces["sched_late"]
        assert quad_sched == pytest.approx(cost.schedule, rel=1e-8)
