import dataclasses
import random

import numpy as np
import pytest

from tollgap import BottleneckParams
from tollgap import bottleneck as bn
from tollgap import mfd, oracle, verify
from tollgap.calibration import builtin_scenario
from tollgap.core import DomainError, ParamsBlock

BAY = builtin_scenario("bay_bridge")
NYC = builtin_scenario("nyc")
PIECES = ("revenue", "transit", "car_freeflow", "queuing", "schedule")


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
        trace, outcome, _ = oracle.simulate_static_bottleneck(params, 0.0)
        assert outcome.peak_wait == pytest.approx(3.546511627906977, abs=1e-6)
        assert float(trace.wait.max()) == pytest.approx(3.546511627906977, abs=1e-6)
        assert outcome.n_transit == pytest.approx(0.0, abs=1e-6)

    def test_top_of_band_degenerates_flat(self):
        params = BAY.params(1.5)
        _, outcome, cost = oracle.simulate_static_bottleneck(params, params.cost_gap)
        assert outcome.peak_wait == 0.0
        assert cost.revenue == pytest.approx(bn.static_revenue(params, params.cost_gap), rel=1e-9)

    def test_components_match_closed_forms(self):
        params = BAY.params(1.5)
        _, outcome, cost = oracle.simulate_static_bottleneck(params, 0.05)
        closed = bn.static_system_cost(params, 0.05)
        for field in ("transit", "car_freeflow", "queuing", "schedule", "revenue"):
            assert getattr(cost, field) == pytest.approx(getattr(closed, field), rel=1e-6)
        assert outcome.total == pytest.approx(params.total_demand, rel=1e-9)

    def test_trace_invariants(self):
        params = BAY.params(2.5)
        toll = 0.3 * params.cost_gap
        trace, outcome, _ = oracle.simulate_static_bottleneck(params, toll)
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

    def test_trace_nodes_are_the_kinks(self):
        # The segment ends describe the piecewise-linear profile exactly: the
        # nodes are the service interval's ends and both kinks, nothing else,
        # and the trace carries exactly the costs entry point's results.
        rng = random.Random(17)
        for _ in range(40):
            params = verify.sample_params(rng)
            lo, hi = bn.feasible_toll_band(params)
            for toll in (rng.uniform(lo, hi), rng.uniform(0.0, lo), hi):
                trace, outcome, cost = oracle.simulate_static_bottleneck(params, toll)
                kinks = np.array([outcome.start, outcome.peak_start, outcome.peak_end, outcome.end])
                assert trace.times.size <= 4 and np.all(np.diff(trace.times) > 0)
                # A segment of zero length may round to a sliver either side of 0.
                nearest = np.abs(kinks[:, None] - trace.times[None, :]).min(axis=1)
                assert float(nearest.max()) <= 1e-12 * params.rush_length
                assert oracle.static_bottleneck_costs(params, toll) == (outcome, cost)

    def test_below_band_trace_ends_at_the_service_end(self):
        # Below the band the flat segment can round an ulp below zero; its end
        # node is dropped, and the nodes still rise strictly up to outcome.end.
        rng = random.Random(19)
        checked = 0
        while checked < 200:
            params = verify.sample_params(rng)
            lo, _ = bn.feasible_toll_band(params)
            if lo <= 0:
                continue
            trace, outcome, _ = oracle.simulate_static_bottleneck(params, rng.uniform(0.0, lo))
            assert trace.times.size <= 4 and np.all(np.diff(trace.times) > 0)
            assert trace.times[-1] == outcome.end
            checked += 1


class TestCostsEntryPoint:
    """``static_bottleneck_costs`` returns exactly what the traced entry point returns."""

    @staticmethod
    def assert_same(params, toll):
        _, outcome, cost = oracle.simulate_static_bottleneck(params, toll)
        assert oracle.static_bottleneck_costs(params, toll) == (outcome, cost)

    def test_mixed_band_and_car_only(self):
        rng = random.Random(11)
        for _ in range(30):
            params = verify.sample_params(rng)
            lo, hi = bn.feasible_toll_band(params)
            self.assert_same(params, rng.uniform(lo, hi))
            # Below the band the peak wait is clamped at the car-only maximum.
            self.assert_same(params, rng.uniform(0.0, lo))

    def test_toll_above_gap(self):
        rng = random.Random(12)
        for _ in range(10):
            params = verify.sample_params(rng)
            self.assert_same(params, params.cost_gap * rng.uniform(1.01, 3.0) + 1e-6)

    def test_capacity_at_or_above_arrival_rate(self):
        rng = random.Random(13)
        for _ in range(10):
            base = verify.sample_params(rng)
            for factor in (1.0, rng.uniform(1.01, 3.0)):
                params = dataclasses.replace(base, capacity=base.arrival_rate * factor)
                self.assert_same(params, rng.uniform(0.0, params.cost_gap))


class TestGridSearches:
    def test_flat_argmax_low_regime(self):
        params = BAY.params(1.5)
        toll_hat, _ = oracle.grid_search_static(params)
        assert toll_hat == pytest.approx(params.cost_gap, abs=1.2e-5)

    def test_flat_argmax_mid_regime(self):
        params = BAY.params(12.15151515)
        toll_hat, _ = oracle.grid_search_static(params)
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
        assert oracle.grid_search_static(params) == (0.0, 0.0)

    def test_revenue_curve_matches_the_closed_form(self):
        # The two-coefficient form of the curve, on a block with one toll row
        # per set, within 1e-12 of bottleneck.static_revenue: below the band,
        # on it, at and above the gap, and with no queue.
        rng = random.Random(8)
        sets = [verify.sample_params(rng) for _ in range(30)]
        sets += [dataclasses.replace(p, capacity=1.5 * p.arrival_rate) for p in sets[:5]]
        tolls = np.array([np.linspace(0.0, 1.2 * p.cost_gap, 61) for p in sets])
        curve = oracle._static_revenue_curve(ParamsBlock.stack(sets), tolls)
        for p, row, values in zip(sets, tolls, curve):
            want = [bn.static_revenue(p, toll) for toll in row]
            assert values.tolist() == pytest.approx(want, rel=1e-12, abs=1e-12 * max(want))
            assert (oracle._static_revenue_curve(p, row) == values).all()

    def test_searches_equal_a_linspace_search_per_set(self):
        # Alone or in a block whose size no chunk divides, each set's result is
        # the argmax over its own numpy.linspace grid, bit for bit: the
        # transcriptions as they were written one set at a time.
        rng = random.Random(21)
        sets = [verify.sample_params(rng, band) for band in ("low", "mid", "high") for _ in range(4)]
        sets += [
            dataclasses.replace(sets[0], transit_cost=sets[0].car_freeflow_cost),
            dataclasses.replace(sets[1], capacity=1.5 * sets[1].arrival_rate),
            dataclasses.replace(sets[2], capacity=sets[2].arrival_rate),
            dataclasses.replace(sets[3], car_freeflow_cost=sets[3].transit_cost + 0.5),
            car_saturated_params(),
        ]
        # The recovery grid and the certificate's: 3 and 15 sets a chunk.
        points = (oracle.SEARCH_POINTS, verify.ARGMAX_GRID)
        assert all(len(sets) % (oracle.CHUNK_FLOATS // n) != 0 for n in points)
        block = ParamsBlock.stack(sets)
        block_static = {n: oracle.grid_search_static(block, n) for n in points}
        for k, p in enumerate(sets):
            for n in points:
                tolls = np.linspace(0.0, max(p.cost_gap, 0.0), n)
                values = oracle._static_revenue_curve(p, tolls)
                i = int(np.argmax(values))
                want = (float(tolls[i]), float(values[i]))
                assert oracle.grid_search_static(p, n) == want
                assert (block_static[n][0][k], block_static[n][1][k]) == want
        # The fraction search takes no negative gap, alone or in a block.
        [negative] = [p for p in sets if p.cost_gap < 0]
        for params in (negative, block):
            with pytest.raises(DomainError):
                oracle.grid_search_dynamic_fraction(params)
        open_sets = [p for p in sets if p.cost_gap >= 0]
        assert len(open_sets) % (oracle.CHUNK_FLOATS // oracle.SEARCH_POINTS) != 0
        block_fraction = oracle.grid_search_dynamic_fraction(ParamsBlock.stack(open_sets))
        for k, p in enumerate(open_sets):
            demand, lam, mu, gap = p.total_demand, p.arrival_rate, p.capacity, p.cost_gap
            # The fraction search runs over the shoulder share u = 1 - f, R by Horner's rule.
            top = min(gap / (demand * p.schedule_factor / mu), 1.0)
            shares = np.linspace(0.0, top, oracle.SEARCH_POINTS)
            k_u = demand * demand / (2.0 * mu) * p.schedule_factor * shares
            values = gap * demand * mu / lam + (gap * demand * (1.0 - mu / lam) - k_u) * shares
            i = int(np.argmax(values))
            want = (1.0 - float(shares[i]), float(values[i]))
            assert oracle.grid_search_dynamic_fraction(p) == want
            assert (block_fraction[0][k], block_fraction[1][k]) == want

    def test_fraction_argmax_lies_within_half_a_step(self):
        # The grid's nearest point to f* wins: 0.49993 of a step at worst here.
        block = verify.sample_block(random.Random(0), 2048)
        frac_hat, _ = oracle.grid_search_dynamic_fraction(block)
        f_star, f_lo = bn._flat_fractions(block)
        step = (1.0 - f_lo) / (oracle.SEARCH_POINTS - 1)
        assert (np.abs(frac_hat - f_star) <= 0.5 * step).all()

    def test_fraction_argmax_nyc(self):
        params = NYC.params(18.0)
        frac_hat, _ = oracle.grid_search_dynamic_fraction(params)
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
        frac_hat, _ = oracle.grid_search_dynamic_fraction(params)
        assert frac_hat == 0.0

    def test_fraction_search_takes_no_negative_gap(self):
        # At a zero gap the only fraction is 1, earning nothing; below it no
        # fraction is feasible.
        base = BAY.params(1.5)
        at_zero = dataclasses.replace(base, transit_cost=base.car_freeflow_cost)
        assert oracle.grid_search_dynamic_fraction(at_zero) == (1.0, 0.0)
        below = dataclasses.replace(base, transit_cost=base.car_freeflow_cost - 1e-9)
        for params in (below, ParamsBlock.stack([base, at_zero, below])):
            with pytest.raises(DomainError, match="transit_cost >= car_freeflow_cost"):
                oracle.grid_search_dynamic_fraction(params)


class TestMfdIntegration:
    def test_top_of_band(self):
        params, net = NYC.params(1.5), NYC.mfd()
        got = oracle.integrate_mfd_revenue(params, net, params.cost_gap)
        want = params.cost_gap * params.total_demand * net.max_throughput / params.arrival_rate
        assert got == pytest.approx(want, rel=1e-6)

    def test_half_toll_matches_closed_form(self):
        params, net = NYC.params(18.0), NYC.mfd()
        toll = params.cost_gap / 2.0
        got = oracle.integrate_mfd_revenue(params, net, toll)
        assert got == pytest.approx(mfd.static_revenue(params, net, toll), rel=1e-6)

    def test_many_toll_agreement_at_coarse_grid(self):
        # Randomized-property variant: 600 tolls, held to the suite's own tolerance.
        result = verify.oracle_agreement_suite(7, 300)
        assert result.ok, result.failures

    def test_revenue_matches_closed_form_across_the_band(self):
        # The shoulder rule integrates the urban outflow to rounding, from the
        # band bottom (longest shoulders) to the top (no shoulders).
        rng = random.Random(23)
        checked = 0
        while checked < 300:
            params = verify.sample_params(rng, regime=rng.choice(["low", "mid"]))
            net = verify.sample_mfd(rng, params)
            lo, hi = mfd.static_lower_toll(params, net), params.cost_gap
            if hi <= lo:
                continue
            for toll in (lo, rng.uniform(lo, hi), hi):
                got = oracle.integrate_mfd_revenue(params, net, toll)
                assert got == pytest.approx(mfd.static_revenue(params, net, toll), rel=1e-12)
            checked += 1

    def test_shoulder_quadrature_matches_closed_forms(self):
        params, net = NYC.params(18.0), NYC.mfd()
        toll = 0.4 * params.cost_gap
        got = oracle.mfd_shoulder_quadrature(params, net, toll)
        cost = mfd.static_system_cost(params, net, toll)
        for piece in PIECES:
            assert getattr(got, piece) == pytest.approx(getattr(cost, piece), rel=1e-8), piece
        # The shoulders alone match the closed queuing less its flat block.
        wait = params.cost_gap - toll
        flat_len = (
            params.total_demand
            - net.jam_accumulation / params.schedule_factor
            * np.log1p(wait * net.max_throughput / net.jam_accumulation)
        ) / params.arrival_rate
        peak_outflow = net.jam_accumulation / (net.jam_accumulation / net.max_throughput + wait)
        queue_flat = flat_len * peak_outflow * wait
        quad_queue = sum(
            oracle._shoulder(params, net, wait, slope)[1]
            for slope in (params.early_penalty, params.late_penalty)
        )
        assert quad_queue == pytest.approx(cost.queuing - queue_flat, rel=1e-8)

    def test_gauss_legendre_order_is_converged(self, monkeypatch):
        # Doubling the rule's order moves no shoulder integral and no piece,
        # at the suite's tolls and at the band bottom where the shoulders are longest.
        rng = random.Random(5)
        cases = []
        while len(cases) < 60:
            params = verify.sample_params(rng, regime=rng.choice(["low", "mid"]))
            net = verify.sample_mfd(rng, params)
            lo, hi = mfd.static_lower_toll(params, net), params.cost_gap
            if hi > lo:
                cases += [(params, net, rng.uniform(lo, hi)), (params, net, lo)]

        def quadrature(params, net, toll):
            wait = params.cost_gap - toll
            slopes = (params.early_penalty, params.late_penalty)
            shoulders = [oracle._shoulder(params, net, wait, slope) for slope in slopes]
            return shoulders, oracle.mfd_shoulder_quadrature(params, net, toll)

        coarse = [quadrature(*case) for case in cases]
        monkeypatch.setattr(oracle, "GAUSS_LEGENDRE_NODES", 256)
        fine = [quadrature(*case) for case in cases]
        for (params, _, _), (got_shoulders, got), (want_shoulders, want) in zip(cases, coarse, fine):
            for got_shoulder, want_shoulder in zip(got_shoulders, want_shoulders):
                # (served, queue, schedule) of one shoulder
                assert got_shoulder == pytest.approx(want_shoulder, rel=1e-12, abs=1e-300)
            for piece in ("revenue", "car_freeflow", "schedule"):
                assert getattr(got, piece) == pytest.approx(getattr(want, piece), rel=1e-12, abs=1e-300)
            # Transit and the flat queue block take N minus the shoulder counts,
            # which cancels to rounding noise at the band bottom: judge them on
            # the scale of all demand and of the shoulder queues.
            transit_scale = params.transit_cost * params.total_demand
            assert got.transit == pytest.approx(want.transit, rel=1e-12, abs=1e-12 * transit_scale)
            queue_scale = want_shoulders[0][1] + want_shoulders[1][1]
            assert got.queuing == pytest.approx(want.queuing, rel=1e-12, abs=1e-12 * queue_scale)
