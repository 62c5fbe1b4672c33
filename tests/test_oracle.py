import ast
import dataclasses
import random
from pathlib import Path

import numpy as np
import pytest

from tollgap import BottleneckParams
from tollgap import bottleneck as bn
from tollgap import mfd, oracle, verify
from tollgap.calibration import builtin_scenario
from tollgap.core import DomainError, ParamsBlock, regime_thresholds

BAY = builtin_scenario("bay_bridge")
NYC = builtin_scenario("nyc")
PIECES = ("revenue", "transit", "car_freeflow", "queuing", "schedule")


def test_the_oracle_imports_only_core_from_the_package():
    # The oracle is the one deliberate duplicate of the closed forms: reading
    # bottleneck or mfd would make its agreement a tautology.
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # A relative import is the package's; ``from . import x`` imports the module x.
            module = ".".join(filter(None, ["tollgap" if node.level else None, node.module]))
            imported.update([module] if node.module else (f"{module}.{alias.name}" for alias in node.names))
    assert {name for name in imported if name.split(".")[0] == "tollgap"} == {"tollgap.core"}


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
        trace, _, _ = oracle.simulate_static_bottleneck(params, toll)
        assert float(trace.wait.min()) >= -1e-12
        # Wait slopes stay in {early_penalty, -late_penalty, 0}.
        slopes = np.diff(trace.wait) / np.diff(trace.times)
        expected = np.array([params.early_penalty, -params.late_penalty, 0.0])
        off = np.abs(slopes[:, None] - expected[None, :]).min(axis=1)
        assert float(off.max()) < 1e-7
        ceiling = params.cost_gap + 1e-9
        assert np.all(trace.wait + toll <= ceiling)

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

    def test_flat_argmax_takes_no_negative_gap(self):
        base = BAY.params(1.5)
        below = dataclasses.replace(base, transit_cost=base.car_freeflow_cost - 1e-9)
        with pytest.raises(DomainError, match="transit_cost >= car_freeflow_cost"):
            oracle.grid_search_static(below)

    def test_flat_argmax_lies_within_a_step_of_the_closed_optimum(self):
        # On the certificates' edge sets and 300 draws from each band, the
        # grid's argmax is at most one step from the closed-form toll.
        rng = random.Random(29)
        draws = [verify.sample_params(rng, band) for band in ("low", "mid", "high") for _ in range(300)]
        for params in edge_sets() + draws:
            toll_hat, revenue = oracle.grid_search_static(params)
            toll_star, _ = bn.static_revenue_optimal_toll(params)
            step = params.cost_gap / (oracle.SEARCH_POINTS - 1)
            assert abs(toll_hat - toll_star) <= step * (1 + 1e-12)
            assert revenue == oracle.static_bottleneck_costs(params, toll_hat)[1].revenue

    def test_certificates_give_each_block_row_its_single_set_result(self):
        # The certificates give each block row the one-set result, bit for
        # bit, and take no negative gap, alone or in a block.
        rng = random.Random(21)
        sets = [verify.sample_params(rng, band) for band in ("low", "mid", "high") for _ in range(4)]
        sets += [
            dataclasses.replace(sets[0], transit_cost=sets[0].car_freeflow_cost),
            dataclasses.replace(sets[1], capacity=1.5 * sets[1].arrival_rate),
            dataclasses.replace(sets[2], capacity=sets[2].arrival_rate),
            dataclasses.replace(sets[3], car_freeflow_cost=sets[3].transit_cost + 0.5),
            car_saturated_params(),
        ]
        block = ParamsBlock.stack(sets)
        [negative] = [p for p in sets if p.cost_gap < 0]
        open_sets = [p for p in sets if p.cost_gap >= 0]
        for certificate in (oracle.flat_certificate, oracle.fraction_certificate):
            for params in (negative, block):
                with pytest.raises(DomainError, match="transit_cost >= car_freeflow_cost"):
                    certificate(params)
            found = certificate(ParamsBlock.stack(open_sets))
            for k, p in enumerate(open_sets):
                assert tuple(float(v[k]) for v in found) == certificate(p)

    def test_fraction_argmax_lies_within_half_a_step(self):
        # The certificate's argmax is the fitted vertex: 6.4e-15 from f* here,
        # far inside half a step of the 10 000-point grid it replaced.
        block = verify.sample_block(random.Random(0), 2048)
        frac_hat, _, _ = oracle.fraction_certificate(block)
        f_star, f_lo = bn._flat_fractions(block)
        step = (1.0 - f_lo) / (10_000 - 1)
        assert (np.abs(frac_hat - f_star) <= 0.5 * step).all()
        assert (np.abs(frac_hat - f_star) <= 1e-13).all()

    def test_fraction_argmax_nyc(self):
        params = NYC.params(18.0)
        frac_hat, _, _ = oracle.fraction_certificate(params)
        assert frac_hat == pytest.approx(0.26561859631147566, abs=1e-13)

    def test_fraction_argmax_saturated(self):
        base = BAY.params(1.5)
        lam, mu = base.arrival_rate, base.capacity
        max_wait = bn.max_wait_car_only(base)
        gap = 1.1 * max_wait * max(lam / mu, lam / (lam - mu))
        params = BottleneckParams(
            base.total_demand, lam, mu, base.early_penalty, base.late_penalty,
            base.car_freeflow_cost, base.car_freeflow_cost + gap,
        )
        frac_hat, _, _ = oracle.fraction_certificate(params)
        assert frac_hat == 0.0

    def test_fraction_search_takes_no_negative_gap(self):
        # At a zero gap the only fraction is 1, earning nothing; below it no
        # fraction is feasible.
        base = BAY.params(1.5)
        at_zero = dataclasses.replace(base, transit_cost=base.car_freeflow_cost)
        assert oracle.fraction_certificate(at_zero) == (1.0, 0.0, 0.0)
        below = dataclasses.replace(base, transit_cost=base.car_freeflow_cost - 1e-9)
        for params in (below, ParamsBlock.stack([base, at_zero, below])):
            with pytest.raises(DomainError, match="transit_cost >= car_freeflow_cost"):
                oracle.fraction_certificate(params)


def edge_sets() -> list[BottleneckParams]:
    """Sets at the certificates' edges: a zero gap, no queue, and the gap at low, at W_max and above it."""
    base = verify.sample_params(random.Random(31), "mid")
    low, _ = regime_thresholds(base)
    at_gap = [
        dataclasses.replace(base, transit_cost=base.car_freeflow_cost + gap)
        for gap in (0.0, low, bn.max_wait_car_only(base), 1.7 * bn.max_wait_car_only(base))
    ]
    no_queue = [dataclasses.replace(base, capacity=factor * base.arrival_rate) for factor in (1.0, 1.5)]
    return at_gap + no_queue + [car_saturated_params()]


class TestShapeCertificates:
    """The shape certificates against the closed-form optima and the grid search they replaced."""

    def test_certified_maxima_equal_the_closed_optima_on_floats_and_blocks(self):
        # 5.7e-16 and 5.6e-16 at worst over 20 480 draws; the shape residuals 6.9e-16 and 4.1e-16.
        edges = edge_sets()
        for params in [ParamsBlock.stack(edges), *edges, verify.sample_block(random.Random(17), 200)]:
            _, flat_max, flat_shape = oracle.flat_certificate(params)
            _, fraction_max, fraction_shape = oracle.fraction_certificate(params)
            _, flat = bn.static_revenue_optimal_toll(params)
            f_star, _ = bn._flat_fractions(params)
            dynamic = bn._trapezoid_cost(params, f_star).revenue
            assert np.all(verify._rel_gap(flat_max, flat.revenue) <= 1e-14)
            assert np.all(verify._rel_gap(fraction_max, dynamic) <= 1e-14)
            assert np.all(np.maximum(flat_shape, fraction_shape) <= 1e-14)

    def test_no_grid_point_beats_the_flat_certificate(self):
        # The grid search stays for the benchmark; none of its 2000 points on
        # [0, g] beats the certified maximum by REL_TOL, set by set.
        rng = random.Random(17)
        for params in [*edge_sets(), *(verify.sample_params(rng) for _ in range(200))]:
            _, grid_max = oracle.grid_search_static(params, 2000)
            _, flat_max, _ = oracle.flat_certificate(params)
            assert grid_max <= flat_max * (1 + verify.REL_TOL)

    def test_flat_pieces_meet_at_the_kink(self, monkeypatch):
        # Past W_max the revenue is linear below the kink g - W_max, where every
        # user drives and pays, and quadratic above it.  Each piece holds its
        # fit; a cubic term in the revenue fails it.
        params = edge_sets()[3]
        kink = params.cost_gap - bn.max_wait_car_only(params)
        assert kink > 0
        tolls = np.linspace(0.0, kink, 5)
        revenue = oracle.static_bottleneck_costs(params, tolls)[1].revenue
        assert revenue == pytest.approx(tolls * params.total_demand, rel=1e-14)
        assert oracle.flat_certificate(params)[2] <= 1e-14
        real = oracle.static_bottleneck_costs

        def cubic(p, tolls):
            outcome, cost = real(p, tolls)
            return outcome, dataclasses.replace(cost, revenue=cost.revenue + 1e-6 * p.total_demand * tolls**3)

        monkeypatch.setattr(oracle, "static_bottleneck_costs", cubic)
        assert oracle.flat_certificate(params)[2] > verify.REL_TOL


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
