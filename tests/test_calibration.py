import dataclasses
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tollgap import ParameterError
from tollgap import bottleneck as bn
from tollgap.calibration import (
    _KEYS,
    BUILTIN_SCENARIOS,
    Scenario,
    ScenarioFormatError,
    builtin_scenario,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)

BAY = BUILTIN_SCENARIOS["bay_bridge"]
NYC = BUILTIN_SCENARIOS["nyc"]


class TestCostSpecs:
    def test_bay_bridge_transit_cost(self):
        got = BAY.params(1.5).transit_cost
        assert got == pytest.approx(6.14 / 22.0 + 1.55, rel=1e-12)

    def test_zero_discomfort_leaves_fare_only(self):
        assert BAY.params(0.0).transit_cost == pytest.approx(6.14 / 22.0)

    def test_nyc_transit_cost_at_18(self):
        assert NYC.params(18.0).transit_cost == pytest.approx(10.425)

    def test_affine_in_discomfort(self):
        slope = NYC.transit_walk_time + NYC.transit_wait_time + NYC.transit_in_vehicle_time
        z0 = NYC.params(2.0).transit_cost
        z1 = NYC.params(3.0).transit_cost
        assert z1 - z0 == pytest.approx(slope, abs=1e-12)

    def test_car_costs(self):
        def car(scenario, parking_fee, freeflow_time):
            changed = dataclasses.replace(
                scenario, car_parking_fee=parking_fee, car_freeflow_time=freeflow_time
            )
            return changed.params(1.5).car_freeflow_cost

        assert car(BAY, 30.0, 0.35) == pytest.approx(1.7136364, abs=1e-6)
        assert car(NYC, 30.0, 0.15) == pytest.approx(0.9)
        assert car(BAY, 0.0, 0.0) == 0.0

    def test_invalid_value_of_time(self):
        with pytest.raises(ParameterError):
            dataclasses.replace(NYC, value_of_time=0.0)


class TestBuiltins:
    def test_bay_bridge_values(self):
        sc = builtin_scenario("bay_bridge")
        assert sc.capacity == 9600.0
        assert sc.total_demand == 70000.0
        assert sc.arrival_rate == 14000.0
        assert sc.implemented_toll == 8.50
        assert sc.car_freeflow_time == pytest.approx(21.0 / 60.0)

    def test_nyc_values(self):
        sc = builtin_scenario("nyc")
        assert sc.trip_distance == 6.0
        assert sc.max_throughput == 45000.0
        assert sc.jam_accumulations == (14000.0, 42000.0, 70000.0, 140000.0)
        assert sc.default_jam_accumulation == 140000.0
        assert sc.implemented_toll == 9.0

    def test_unknown_builtin(self):
        with pytest.raises(ScenarioFormatError):
            builtin_scenario("atlantis")

    def test_round_trip(self):
        for name in BUILTIN_SCENARIOS:
            sc = builtin_scenario(name)
            assert parse_scenario(serialize_scenario(sc)) == sc

    def test_bay_bridge_stays_in_guarantee_regime(self):
        # The factor-2 cost guarantee needs gap <= car-only max wait; the
        # preset satisfies it across the empirically supported eta range.
        sc = builtin_scenario("bay_bridge")
        for eta in [1.0 + 0.1 * k for k in range(39)]:  # up to 4.8
            params = sc.params(eta)
            assert params.cost_gap < bn.max_wait_car_only(params)


class TestParsing:
    def test_missing_arrival_rate_named(self, tmp_path):
        text = serialize_scenario(builtin_scenario("bay_bridge"))
        text = "\n".join(l for l in text.splitlines() if not l.startswith("demand.arrival_rate"))
        path = tmp_path / "partial.scenario"
        path.write_text(text)
        with pytest.raises(ScenarioFormatError, match="arrival_rate"):
            load_scenario(str(path))

    def test_each_scenario_field_has_exactly_one_key(self):
        keyed = sorted(row.field for row in _KEYS.values())
        assert keyed == sorted(f.name for f in dataclasses.fields(Scenario))

    def test_dropping_each_preset_line(self):
        lines = serialize_scenario(BAY).splitlines()
        for i, line in enumerate(lines):
            key = line.split(" = ")[0]
            text = "\n".join(lines[:i] + lines[i + 1 :])
            if key.startswith("policy."):
                assert parse_scenario(text) == dataclasses.replace(BAY, **{_KEYS[key].field: None})
                continue
            message = (
                "exactly one of supply.capacity"
                if key == "supply.capacity"
                else f"missing required keys: {key.split('.', 1)[1]}$"
            )
            with pytest.raises(ScenarioFormatError, match=message):
                parse_scenario(text)

    def test_unknown_key_named(self):
        text = serialize_scenario(builtin_scenario("bay_bridge")) + "demand.banana = 3 users\n"
        with pytest.raises(ScenarioFormatError, match="banana"):
            parse_scenario(text)

    def test_missing_unit_named(self):
        text = serialize_scenario(builtin_scenario("bay_bridge")).replace(
            "transit.fare = 6.14 dollars", "transit.fare = 6.14"
        )
        with pytest.raises(ScenarioFormatError, match="transit.fare"):
            parse_scenario(text)

    def test_wrong_unit_dimension(self):
        text = serialize_scenario(builtin_scenario("bay_bridge")).replace(
            "transit.fare = 6.14 dollars", "transit.fare = 6.14 hours"
        )
        with pytest.raises(ScenarioFormatError, match="transit.fare"):
            parse_scenario(text)

    def test_minutes_autoconvert(self):
        text = serialize_scenario(builtin_scenario("bay_bridge"))
        walk_line = next(l for l in text.splitlines() if l.startswith("transit.walk_time"))
        sc = parse_scenario(text.replace(walk_line, "transit.walk_time = 20 minutes"))
        assert sc.transit_walk_time == pytest.approx(1.0 / 3.0)

    def test_supply_exclusivity(self):
        text = serialize_scenario(builtin_scenario("bay_bridge"))
        text += "supply.max_throughput = 45000 vehicles_per_hour\n"
        text += "supply.jam_accumulation = 140000 vehicles\n"
        text += "supply.freeflow_speed = 40 km_per_hour\n"
        text += "supply.trip_distance = 6 km\n"
        with pytest.raises(ScenarioFormatError):
            parse_scenario(text)

    def test_comments_and_blank_lines(self):
        text = "# header comment\n\n" + serialize_scenario(builtin_scenario("nyc"))
        assert parse_scenario(text) == builtin_scenario("nyc")

    def test_mfd_scenario_round_trip(self):
        sc = builtin_scenario("nyc")
        again = parse_scenario(serialize_scenario(sc))
        assert again.mfd().critical_accumulation == pytest.approx(6750.0)

    def test_params_conversion(self):
        sc = builtin_scenario("bay_bridge")
        params = sc.params(1.5)
        assert params.transit_cost == pytest.approx(1.8290909, abs=1e-6)
        assert params.car_freeflow_cost == pytest.approx(1.7136364, abs=1e-6)

    def test_negative_implemented_toll_rejected(self):
        with pytest.raises(ParameterError, match="implemented_toll must be nonnegative"):
            dataclasses.replace(builtin_scenario("bay_bridge"), implemented_toll=-3.0)
        free = dataclasses.replace(builtin_scenario("nyc"), implemented_toll=0.0)
        assert free.implemented_toll == 0.0


# Each unit token with its factor to the canonical unit, grouped by dimension;
# written out here rather than read from the module's own table.
UNIT_GROUPS = [
    {"dollars": 1.0},
    {"dollars_per_hour": 1.0},
    {"hours": 1.0, "minutes": 1.0 / 60.0},
    {"users": 1.0, "vehicles": 1.0},
    {"users_per_hour": 1.0, "vehicles_per_hour": 1.0},
    {"km": 1.0, "miles": 1.609344},
    {"km_per_hour": 1.0, "mph": 1.609344},
]


def _unit_lines():
    """(preset text, key, group) for every unit-bearing line of both presets."""
    for scenario in BUILTIN_SCENARIOS.values():
        text = serialize_scenario(scenario)
        for line in text.splitlines():
            key, _, rest = line.partition(" = ")
            unit = rest.split()[-1]
            for group in UNIT_GROUPS:
                if unit in group:
                    yield text, key, group


class TestUnits:
    def test_unit_bearing_keys_cover_every_dimension(self):
        keys = {key for _, key, _ in _unit_lines()}
        assert len(keys) == 15
        assert {tuple(group) for _, _, group in _unit_lines()} == {tuple(g) for g in UNIT_GROUPS}

    def test_every_unit_of_the_dimension_converts(self):
        for text, key, group in _unit_lines():
            old = next(l for l in text.splitlines() if l.startswith(f"{key} ="))
            canonical = old.split()[-1]
            for unit, factor in group.items():
                again = serialize_scenario(parse_scenario(text.replace(old, f"{key} = 2.5 {unit}")))
                line = next(l for l in again.splitlines() if l.startswith(f"{key} ="))
                assert line == f"{key} = {2.5 * factor!r} {canonical}", (key, unit)

    def test_unit_of_another_dimension_is_rejected(self):
        for text, key, group in _unit_lines():
            old = next(l for l in text.splitlines() if l.startswith(f"{key} ="))
            for other in UNIT_GROUPS:
                if other is group:
                    continue
                for unit in other:
                    with pytest.raises(ScenarioFormatError, match=f"^{key}: expected a"):
                        parse_scenario(text.replace(old, f"{key} = 2.5 {unit}"))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NONNEG = st.floats(min_value=0.0, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NAMES = st.text(string.ascii_letters + string.digits + "_-. ", min_size=1, max_size=20)


@st.composite
def scenarios(draw) -> Scenario:
    supply = {"capacity": draw(FINITE)}
    if draw(st.booleans()):
        supply = {
            "max_throughput": draw(FINITE),
            "jam_accumulations": tuple(draw(st.lists(FINITE, min_size=1, max_size=4))),
            "freeflow_speed": draw(FINITE),
            "trip_distance": draw(FINITE),
        }
    return Scenario(
        name=draw(NAMES.map(str.strip).filter(bool)),
        value_of_time=draw(POSITIVE),
        total_demand=draw(FINITE),
        arrival_rate=draw(FINITE),
        early_penalty=draw(FINITE),
        late_penalty=draw(FINITE),
        transit_fare=draw(NONNEG),
        transit_walk_time=draw(NONNEG),
        transit_wait_time=draw(NONNEG),
        transit_in_vehicle_time=draw(NONNEG),
        car_parking_fee=draw(NONNEG),
        car_freeflow_time=draw(NONNEG),
        eta_sweep=tuple(draw(st.lists(POSITIVE, min_size=1, max_size=40))),
        implemented_toll=draw(st.none() | NONNEG),
        crossover_reference_eta=draw(st.none() | POSITIVE),
        **supply,
    )


@settings(max_examples=100, deadline=None, database=None)
@given(scenario=scenarios())
def test_serialize_round_trips(scenario):
    assert parse_scenario(serialize_scenario(scenario)) == scenario
