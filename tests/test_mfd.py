import dataclasses
import decimal
import math
import random
import sys

import numpy as np
import pytest

from tollgap import BottleneckParams, CostBreakdown, DomainError, ParameterError, Regime, TriangularMfd
from tollgap import bottleneck as bn
from tollgap import cli, mfd, verify
from tollgap.calibration import builtin_scenario
from tollgap.core import classify_regime, regime_thresholds
from tollgap.search import grid_refine_max, grid_refine_min

NYC = builtin_scenario("nyc")


def nyc_setup(eta: float, nj: float | None = None):
    scenario = NYC if nj is None else dataclasses.replace(NYC, jam_accumulations=(nj,))
    return scenario.params(eta), scenario.mfd()


class TestTriangularMfd:
    def test_critical_accumulation(self):
        net = NYC.mfd()
        assert net.critical_accumulation == pytest.approx(6750.0)

    def test_rejects_degenerate_triangle(self):
        with pytest.raises(ParameterError):
            TriangularMfd(45000.0, 6000.0, 40.0, 6.0)  # jam below critical


class TestStaticLowerToll:
    def test_nyc_low_eta_is_zero(self):
        params, net = nyc_setup(1.5)
        assert mfd.static_lower_toll(params, net) == 0.0

    def test_large_jam_matches_bottleneck_band_edge(self):
        params = NYC.params(18.0)
        net = TriangularMfd(45000.0, 1e12, 40.0, 6.0)
        want = max(0.0, params.cost_gap - bn.max_wait_car_only(params))
        assert mfd.static_lower_toll(params, net) == pytest.approx(want, abs=1e-6)

    def test_zero_gap(self):
        base = NYC.params(1.5)
        params = BottleneckParams(
            base.total_demand,
            base.arrival_rate,
            base.capacity,
            base.early_penalty,
            base.late_penalty,
            base.car_freeflow_cost,
            base.car_freeflow_cost,
        )
        assert mfd.static_lower_toll(params, NYC.mfd()) == 0.0


class TestStaticRevenue:
    def test_top_of_band_low_eta(self):
        params, net = nyc_setup(1.5)
        assert mfd.static_revenue(params, net, params.cost_gap) == pytest.approx(8437.5)

    def test_top_of_band_is_capacity_share(self):
        params, net = nyc_setup(7.0)
        want = params.cost_gap * params.total_demand * net.max_throughput / params.arrival_rate
        assert mfd.static_revenue(params, net, params.cost_gap) == pytest.approx(want, rel=1e-12)

    def test_top_of_band_high_eta(self):
        params, net = nyc_setup(18.0)
        assert mfd.static_revenue(params, net, params.cost_gap) == pytest.approx(2_143_125.0)

    def test_domain_error_below_band(self):
        base = NYC.params(18.0)
        params = BottleneckParams(
            base.total_demand,
            base.arrival_rate,
            base.capacity,
            base.early_penalty,
            base.late_penalty,
            base.car_freeflow_cost,
            base.car_freeflow_cost + 15.0,  # gap beyond the shoulder capacity
        )
        net = TriangularMfd(45000.0, 1e12, 40.0, 6.0)
        assert mfd.static_lower_toll(params, net) > 0.0
        with pytest.raises(DomainError):
            mfd.static_revenue(params, net, 0.0)


class TestStaticSystemCost:
    def test_top_of_band_split_cost(self):
        params, net = nyc_setup(18.0)
        cost = mfd.static_system_cost(params, net, params.cost_gap)
        assert cost.total == pytest.approx(7_239_375.0)
        assert cost.queuing == 0.0 and cost.schedule == 0.0

    def test_ratio_at_low_eta(self):
        params, net = nyc_setup(1.5)
        cost = mfd.static_system_cost(params, net, params.cost_gap)
        bench = mfd.dynamic_benchmarks(params, net)
        assert cost.total / bench.so.system_cost == pytest.approx(1.00005841, abs=1e-6)

    def test_components_positive_inside_band(self):
        params, net = nyc_setup(12.0)
        toll = 0.5 * params.cost_gap
        cost = mfd.static_system_cost(params, net, toll)
        assert cost.queuing > 0 and cost.schedule > 0 and cost.transit > 0


class TestOptimizers:
    @pytest.mark.parametrize("eta", [1.5, 18.0])
    def test_revenue_argmax_at_band_top(self, eta):
        params, net = nyc_setup(eta)
        toll, cost = mfd.static_revenue_optimal(params, net)
        assert toll == params.cost_gap  # boundary optimum is exact
        assert cost == mfd.static_system_cost(params, net, toll)

    def test_zero_gap_degenerates(self):
        base = NYC.params(1.5)
        params = BottleneckParams(
            base.total_demand,
            base.arrival_rate,
            base.capacity,
            base.early_penalty,
            base.late_penalty,
            base.car_freeflow_cost,
            base.car_freeflow_cost,
        )
        toll, cost = mfd.static_revenue_optimal(params, NYC.mfd())
        assert (toll, cost.revenue) == (0.0, 0.0)

    def test_negative_gap_is_all_transit(self):
        # Transit dominates: every user rides it at the toll 0, for either goal.
        base = NYC.params(1.5)
        params = dataclasses.replace(base, transit_cost=0.5 * base.car_freeflow_cost)
        assert params.cost_gap < 0
        all_transit = CostBreakdown(params.transit_cost * params.total_demand, 0.0, 0.0, 0.0, 0.0)
        for optimum in (mfd.static_sc_optimal, mfd.static_revenue_optimal):
            assert optimum(params, NYC.mfd()) == (0.0, all_transit)

    @pytest.mark.parametrize("eta", [1.5, 18.0])
    def test_sc_optimal_coincides(self, eta):
        params, net = nyc_setup(eta)
        toll, cost = mfd.static_sc_optimal(params, net)
        assert toll == params.cost_gap
        zero_queue = mfd.static_system_cost(params, net, params.cost_gap).total
        assert cost.total <= zero_queue * (1 + 1e-12)

    def test_jam_level_insensitive_at_band_top(self):
        values = []
        for nj in NYC.jam_accumulations:
            params, net = nyc_setup(18.0, nj)
            toll, cost = mfd.static_revenue_optimal(params, net)
            values.append((toll, cost.revenue, cost.total))
        assert all(v == values[0] for v in values)


class TestExactKernel:
    """The shoulder queue and schedule against a 400-digit decimal reference, down to zero wait."""

    # Transit cost is the gap, set per case; toll 0 then gives the peak wait W = gap exactly.
    PARAMS = BottleneckParams(200.0, 100.0, 25.0, 0.5, 2.0, 0.0, 1.0)
    NET = TriangularMfd(25.0, 30.0, 10.0, 5.0)  # a = n_j/mu_f = 1.2; toll 0 is in the band to x = 13
    XS = [10.0**k for k in np.linspace(-300.0, 1.0, 61)] + [0.999e-3, 1e-3, 1.001e-3]

    def reference(self, wait: float) -> tuple[float, float]:
        """Queuing and schedule of the flat toll at peak wait ``wait``, from the model's formulas."""
        params, net = self.PARAMS, self.NET
        with decimal.localcontext() as ctx:
            ctx.prec = 400
            n_j, mu_f = decimal.Decimal(net.jam_accumulation), decimal.Decimal(net.max_throughput)
            lam, demand = decimal.Decimal(params.arrival_rate), decimal.Decimal(params.total_demand)
            e, late = decimal.Decimal(params.early_penalty), decimal.Decimal(params.late_penalty)
            w, a = decimal.Decimal(wait), n_j / mu_f
            lg = (1 + w / a).ln()
            flat_len = (demand - n_j * (e + late) / (e * late) * lg) / lam
            both = n_j / e + n_j / late
            queuing = flat_len * n_j / (a + w) * w + both * (w - a * lg)
            schedule = both * (w - n_j / lam * lg) * (1 - a / w * lg)
            return float(queuing), float(schedule)

    @pytest.mark.parametrize("wait", [1.2 * x for x in XS] + [2.373412115741015e-308])
    def test_queuing_and_schedule_match_the_decimal_reference(self, wait):
        params = dataclasses.replace(self.PARAMS, transit_cost=wait)
        cost = mfd.static_system_cost(params, self.NET, 0.0)
        pieces = dataclasses.astuple(cost)
        assert all(math.isfinite(v) and v >= 0.0 for v in pieces), pieces
        for got, want in zip((cost.queuing, cost.schedule), self.reference(wait)):
            if want >= sys.float_info.min:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestGuarantees:
    def test_low_band_floor_and_factor_two(self):
        params, net = nyc_setup(3.0)
        report = mfd.guarantees(params, net)
        mu_f, lam = net.max_throughput, params.arrival_rate
        assert report.revenue_ratio_lower_bound == pytest.approx(2.0 / (3.0 - mu_f / lam))
        assert report.sc_ratio_upper_bound == 2.0
        assert report.exact_sc_ratio is None

    def test_no_revenue_floor_outside_the_low_band(self):
        params, net = nyc_setup(9.0)
        assert bn.performance_bounds(params).revenue_ratio_lower_bound is not None
        report = mfd.guarantees(params, net)
        assert report.revenue_ratio_lower_bound is None
        assert report.sc_ratio_upper_bound == 2.0

    def test_stated_at_the_max_throughput(self):
        params, net = nyc_setup(3.0)
        other = dataclasses.replace(params, capacity=0.5 * params.capacity)
        assert mfd.guarantees(other, net) == mfd.guarantees(params, net)

    def test_floor_exactly_where_mu_f_is_in_the_low_band(self):
        # Every nyc sweep point, and 2000 draws with their own max throughput,
        # every tenth with its gap exactly at low (at mu_f), where the tie keeps the floor.
        rng = random.Random(8)
        cases = [nyc_setup(eta) for eta in NYC.eta_sweep]
        for i in range(2000):
            params = verify.sample_params(rng)
            at_mu_f = dataclasses.replace(params, capacity=rng.uniform(0.2, 0.99) * params.arrival_rate)
            if i % 10 == 0:
                low, _ = regime_thresholds(at_mu_f)
                params = dataclasses.replace(params, car_freeflow_cost=0.0, transit_cost=low)
            cases.append((params, verify.sample_mfd(rng, at_mu_f)))
        floored = []
        for params, net in cases:
            at_mu_f = dataclasses.replace(params, capacity=net.max_throughput)
            if at_mu_f.cost_gap < 0 or net.max_throughput >= params.arrival_rate:
                continue
            floor = mfd.guarantees(params, net).revenue_ratio_lower_bound
            assert (floor is not None) == (classify_regime(at_mu_f) is Regime.MIXED_LOW)
            floored.append(floor is not None)
        assert len(floored) > 2000 and 0 < sum(floored) < len(floored)


def test_crossover_searches_refine_one_objective_each(monkeypatch):
    # A search of the revenue optimum refines the revenue alone.
    objectives = []
    real = mfd.grid_refine_mins

    def counting(fn, lo, hi, grid_points):
        tolls = real(fn, lo, hi, grid_points)
        objectives.extend(len(per_problem) for per_problem in tolls)
        return tolls

    monkeypatch.setattr(mfd, "grid_refine_mins", counting)
    cli.crossover_eta(NYC)
    assert objectives and set(objectives) == {1}


def sampled_bands(seed: int, per_regime: int):
    """Seeded urban draws with a nonempty toll band, in all three regimes."""
    rng = random.Random(seed)
    draws = []
    for regime in ("low", "mid", "high"):
        while sum(1 for d in draws if d[0] == regime) < per_regime:
            params = verify.sample_params(rng, regime=regime)
            net = verify.sample_mfd(rng, params)
            if params.cost_gap > mfd.static_lower_toll(params, net):
                draws.append((regime, params, net))
    return draws


class TestSearchRecovery:
    """Both flat-toll searches against a dense scan of the band, on seeded draws."""

    DENSE_POINTS = 200_001

    def test_optima_no_worse_than_a_dense_scan(self):
        rng = random.Random(7)
        checked = 0
        while checked < 200:
            params = verify.sample_params(rng, regime=rng.choice(["low", "mid"]))
            net = verify.sample_mfd(rng, params)
            lo, hi = mfd.static_lower_toll(params, net), params.cost_gap
            if hi <= lo:
                continue
            dense = mfd.static_system_cost(params, net, np.linspace(lo, hi, self.DENSE_POINTS))
            _, ro = mfd.static_revenue_optimal(params, net)
            _, so = mfd.static_sc_optimal(params, net)
            assert ro.revenue >= dense.revenue.max() * (1 - 1e-12), (params, net)
            assert so.total <= dense.total.min() * (1 + 1e-12), (params, net)
            checked += 1

    @pytest.mark.parametrize("regime, params, net", sampled_bands(seed=13, per_regime=3))
    def test_joint_search_matches_single_searches(self, regime, params, net):
        lo, hi = mfd.static_lower_toll(params, net), params.cost_gap
        ro, so = mfd.static_optima(params, net)
        revenue = lambda t: mfd.static_revenue(params, net, t)
        cost = lambda t: mfd.static_system_cost(params, net, t).total
        assert (ro[0], ro[1].revenue) == grid_refine_max(revenue, lo, hi, mfd.DEFAULT_GRID_POINTS)
        assert (so[0], so[1].total) == grid_refine_min(cost, lo, hi, mfd.DEFAULT_GRID_POINTS)
        assert ro[1] == mfd.static_system_cost(params, net, ro[0])
        assert so[1] == mfd.static_system_cost(params, net, so[0])


def optima_bits(optima):
    """Each optimum's toll and pieces as exact hex strings, so -0.0 and 0.0 differ."""
    return [
        [(float(toll).hex(), [float(x).hex() for x in dataclasses.astuple(cost)]) for toll, cost in pair]
        for pair in optima
    ]


class TestBatchedSearch:
    """One search of many sets gives each set what a search of it alone gives, bit for bit."""

    @staticmethod
    def check(sets):
        batched = mfd.static_optima_many(sets)
        alone = [mfd.static_optima(params, net) for params, net in sets]
        assert optima_bits(batched) == optima_bits(alone)
        for (params, net), pair in zip(sets, batched):
            for toll, cost in pair:
                if params.cost_gap >= 0:  # the pieces of one float evaluation at the toll
                    assert optima_bits([[(toll, mfd.static_system_cost(params, net, toll))]]) == (
                        optima_bits([[(toll, cost)]])
                    )

    def test_every_nyc_sweep_set(self):
        sets = [nyc_setup(eta, nj) for eta in NYC.eta_sweep for nj in NYC.jam_accumulations]
        assert len(sets) == 72
        self.check(sets)

    def test_sampled_draws(self):
        rng = random.Random(5)
        sets = []
        for _ in range(3000):
            params = verify.sample_params(rng)
            sets.append((params, verify.sample_mfd(rng, params)))
        assert sum(mfd.static_lower_toll(p, net) == 0.0 for p, net in sets) > 1000
        self.check(sets)

    def test_degenerate_bands_among_searched_sets(self):
        params, net = nyc_setup(9.0)
        negative = dataclasses.replace(params, transit_cost=params.car_freeflow_cost - 0.1)
        empty = dataclasses.replace(params, transit_cost=params.car_freeflow_cost)
        sets = [(params, net), (negative, net), (empty, net), nyc_setup(3.0, 14_000.0)]
        assert mfd.static_lower_toll(empty, net) == empty.cost_gap == 0.0
        self.check(sets)
        all_transit = CostBreakdown(negative.transit_cost * negative.total_demand, 0, 0, 0, 0)
        assert mfd.static_optima_many(sets)[1] == ((0.0, all_transit), (0.0, all_transit))

    def test_lower_band_end_zero(self):
        params, net = nyc_setup(18.0, 14_000.0)
        assert mfd.static_lower_toll(params, net) == 0.0 < params.cost_gap
        self.check([(params, net), nyc_setup(5.0)])

    def test_single_set_and_no_set(self):
        self.check([nyc_setup(9.0)])
        assert mfd.static_optima_many([]) == []

    def test_set_count_31_does_not_divide(self):
        # 40 sets, 80 brackets: zoom calls of 31 rows leave partial calls.
        self.check([nyc_setup(1.5 + 0.4 * i, NYC.jam_accumulations[i % 4]) for i in range(40)])


class TestArrayPath:
    """Array tolls take the same arithmetic as float tolls, element by element."""

    @pytest.mark.parametrize("regime, params, net", sampled_bands(seed=11, per_regime=4))
    def test_array_equals_float_calls(self, regime, params, net):
        tolls = np.linspace(mfd.static_lower_toll(params, net), params.cost_gap, 257)
        revenue = mfd.static_revenue(params, net, tolls)
        cost = mfd.static_system_cost(params, net, tolls).total
        assert revenue.shape == cost.shape == tolls.shape
        assert revenue.tolist() == [mfd.static_revenue(params, net, float(t)) for t in tolls]
        assert cost.tolist() == [
            mfd.static_system_cost(params, net, float(t)).total for t in tolls
        ]

    @pytest.mark.parametrize("regime, params, net", sampled_bands(seed=12, per_regime=4))
    def test_optima_inside_band(self, regime, params, net):
        lo, hi = mfd.static_lower_toll(params, net), params.cost_gap
        for search in (mfd.static_revenue_optimal, mfd.static_sc_optimal):
            toll, _ = search(params, net)
            assert lo <= toll <= hi

    def test_array_outside_band_rejected(self):
        params, net = nyc_setup(18.0)
        tolls = np.linspace(0.0, params.cost_gap + 1.0, 5)
        with pytest.raises(DomainError):
            mfd.static_revenue(params, net, tolls)

    def test_toll_domain_keeps_its_slack_and_passes_nan(self):
        # A float or an array toll past the band by twice the slack raises; within
        # the slack, or NaN (the value, not an error, then shows it), it is evaluated.
        params, net = nyc_setup(9.0)
        lo, hi = mfd.static_lower_toll(params, net), params.cost_gap
        slack = 1e-9 * max(1.0, abs(hi))
        for toll in (lo - 2 * slack, hi + 2 * slack, np.array([lo, hi + 2 * slack])):
            with pytest.raises(DomainError, match="outside the mixed-mode band"):
                mfd.static_system_cost(params, net, toll)
        for toll in (lo - 0.5 * slack, hi + 0.5 * slack):
            assert math.isfinite(mfd.static_system_cost(params, net, toll).total)
        assert math.isnan(mfd.static_system_cost(params, net, math.nan).revenue)
        both = mfd.static_system_cost(params, net, np.array([math.nan, hi]))
        assert math.isnan(both.revenue[0]) and both.revenue[1] == mfd.static_revenue(params, net, hi)


class TestDynamicBenchmarks:
    def test_delegation_values(self):
        params, net = nyc_setup(18.0)
        bench = mfd.dynamic_benchmarks(params, net)
        assert bench.ro.revenue == pytest.approx(4_503_995, rel=1e-4)
        assert bench.so.system_cost == pytest.approx(4_091_588, rel=1e-4)
        assert bench.ro.system_cost == pytest.approx(4_288_369, rel=1e-4)
        assert bench.so.revenue / bench.ro.revenue == pytest.approx(0.94175936, abs=1e-6)

    def test_zero_gap_trivial(self):
        base = NYC.params(1.5)
        params = BottleneckParams(
            base.total_demand,
            base.arrival_rate,
            base.capacity,
            base.early_penalty,
            base.late_penalty,
            base.car_freeflow_cost,
            base.car_freeflow_cost,
        )
        bench = mfd.dynamic_benchmarks(params, NYC.mfd())
        assert bench.ro.revenue == 0.0
        assert bench.so.system_cost == pytest.approx(params.transit_cost * params.total_demand, rel=1e-12)

    def test_low_eta_reuses_bottleneck_value(self):
        params, net = nyc_setup(1.5)
        assert mfd.dynamic_benchmarks(params, net).ro.revenue == pytest.approx(8474.09, rel=1e-5)
