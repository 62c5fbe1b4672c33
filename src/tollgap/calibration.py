"""Scenario ingestion: real-world inputs to normalized model parameters.

Monetary quantities enter in dollars and leave in hours (divided by the
scenario's value of waiting time); minute-denominated times are converted at
parse time.  Two presets ship compiled in: ``bay_bridge`` (a fixed-capacity
bridge corridor with a rail alternative) and ``nyc`` (an urban cordon zone
described by a triangular flow diagram with a subway alternative).

Scenario files are line oriented, one ``section.key = value [unit]`` per
line, ``#`` comments allowed.  Every quantity with a dimension needs a unit
(money, money rate, time, count, rate, distance and speed alike, so
``demand.total = 70000`` is an error) so a bare number can never silently
change meaning; dimensionless quantities take no unit.  Every number must be
finite.  A scenario is one flat record: the key table ``_KEYS`` maps each key
to one :class:`Scenario` field and gives the unit dimension it takes, and a
key is required exactly when its field has no default.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import MISSING, dataclass, fields, replace

from .core import BottleneckParams, ParameterError, TriangularMfd

__all__ = [
    "ScenarioFormatError",
    "Scenario",
    "parse_scenario",
    "load_scenario",
    "serialize_scenario",
    "builtin_scenario",
    "BUILTIN_SCENARIOS",
]


class ScenarioFormatError(ValueError):
    """A scenario file violates the format; the message names the key."""


@dataclass(frozen=True)
class Scenario:
    """A calibrated case study: demand, supply, mode costs, and the eta sweep.

    Exactly one of ``capacity`` (fixed bottleneck) or the four flow-diagram
    fields (urban network) is present.  ``jam_accumulations`` may list
    several candidate jam levels: :meth:`mfd`, and so every computed row,
    uses the largest, and a sweep reports any divergence across the set.
    The CLI's ``--nj`` replaces the list with its one level.

    The six ``transit_*`` and ``car_*`` cost components hold fares and fees
    in dollars and times in hours; :meth:`params` normalizes them.
    """

    name: str
    value_of_time: float
    total_demand: float
    arrival_rate: float
    early_penalty: float
    late_penalty: float
    transit_fare: float
    transit_walk_time: float
    transit_wait_time: float
    transit_in_vehicle_time: float
    car_parking_fee: float
    car_freeflow_time: float
    eta_sweep: tuple[float, ...]
    capacity: float | None = None
    max_throughput: float | None = None
    jam_accumulations: tuple[float, ...] = ()
    freeflow_speed: float | None = None
    trip_distance: float | None = None
    implemented_toll: float | None = None
    crossover_reference_eta: float | None = None

    def __post_init__(self) -> None:
        if self.value_of_time <= 0:
            raise ParameterError("value_of_time must be positive")
        for name in (f.name for f in fields(self) if f.name.startswith(("transit_", "car_"))):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be nonnegative")
        if self.implemented_toll is not None and self.implemented_toll < 0:
            raise ParameterError(
                f"implemented_toll must be nonnegative, got {self.implemented_toll:g}"
            )
        if not self.eta_sweep:
            raise ScenarioFormatError("sweep.eta must list at least one value")
        reference = self.crossover_reference_eta
        if min(self.eta_sweep) <= 0:
            raise ParameterError(f"sweep.eta values must be positive, got {min(self.eta_sweep):g}")
        if reference is not None and reference <= 0:
            raise ParameterError(f"policy.crossover_reference_eta must be positive, got {reference:g}")
        mfd_fields = (
            self.max_throughput,
            self.freeflow_speed,
            self.trip_distance,
        )
        has_mfd = any(v is not None for v in mfd_fields) or bool(self.jam_accumulations)
        if (self.capacity is None) == (not has_mfd):
            raise ScenarioFormatError(
                "exactly one of supply.capacity or the flow-diagram block must be present"
            )
        if has_mfd and (any(v is None for v in mfd_fields) or not self.jam_accumulations):
            raise ScenarioFormatError(
                "flow-diagram supply needs max_throughput, jam_accumulation, "
                "freeflow_speed, and trip_distance"
            )

    @property
    def is_mfd(self) -> bool:
        return self.capacity is None

    @property
    def default_jam_accumulation(self) -> float:
        return max(self.jam_accumulations)

    def mfd(self) -> TriangularMfd:
        """The flow diagram at the default (largest) jam level."""
        if not self.is_mfd:
            raise ParameterError(f"scenario {self.name!r} has a fixed-capacity supply")
        return TriangularMfd(
            max_throughput=self.max_throughput,
            jam_accumulation=self.default_jam_accumulation,
            freeflow_speed=self.freeflow_speed,
            trip_distance=self.trip_distance,
        )

    def params(self, eta: float) -> BottleneckParams:
        """Model parameters at a given discomfort multiplier.

        Dollars are divided by the value of time, and every transit time (not
        the fare) is scaled by the discomfort multiplier ``eta``, to reflect
        that transit minutes are perceived as more onerous than driving
        minutes: ``z_T = fare/vot + eta*(walk + wait + ride)`` and
        ``z_C = parking/vot + t_free``, both in hours.  For urban scenarios
        the capacity slot carries the maximum throughput, which is what the
        dynamic benchmarks and guarantee checks use.
        """
        vot = self.value_of_time
        transit_time = self.transit_walk_time + self.transit_wait_time + self.transit_in_vehicle_time
        return BottleneckParams(
            total_demand=self.total_demand,
            arrival_rate=self.arrival_rate,
            capacity=self.capacity if self.capacity is not None else self.max_throughput,
            early_penalty=self.early_penalty,
            late_penalty=self.late_penalty,
            car_freeflow_cost=self.car_parking_fee / vot + self.car_freeflow_time,
            transit_cost=self.transit_fare / vot + eta * transit_time,
        )


# unit token -> (dimension, factor to canonical unit)
_UNITS = {
    "dollars": ("money", 1.0),
    "dollars_per_hour": ("money_rate", 1.0),
    "hours": ("time", 1.0),
    "minutes": ("time", 1.0 / 60.0),
    "users": ("count", 1.0),
    "vehicles": ("count", 1.0),
    "users_per_hour": ("rate", 1.0),
    "vehicles_per_hour": ("rate", 1.0),
    "km": ("distance", 1.0),
    "miles": ("distance", 1.609344),
    "km_per_hour": ("speed", 1.0),
    "mph": ("speed", 1.609344),
}

# The whole file format, one row per key in the order serialize_scenario
# writes them: the key; the Scenario field it fills, which makes the key
# required exactly when the field has no default; the canonical unit, which
# serialize_scenario writes and whose dimension the key takes (None: a bare
# number); whether it takes a list.  scenario.name is text.
_Key = namedtuple("_Key", "key field unit is_list")
_KEYS = {
    row[0]: _Key(*row)
    for row in (
        ("scenario.name", "name", None, False),
        ("scenario.value_of_time", "value_of_time", "dollars_per_hour", False),
        ("demand.total", "total_demand", "users", False),
        ("demand.arrival_rate", "arrival_rate", "users_per_hour", False),
        ("schedule.early_penalty", "early_penalty", None, False),
        ("schedule.late_penalty", "late_penalty", None, False),
        ("supply.capacity", "capacity", "vehicles_per_hour", False),
        ("supply.max_throughput", "max_throughput", "vehicles_per_hour", False),
        ("supply.jam_accumulation", "jam_accumulations", "vehicles", True),
        ("supply.freeflow_speed", "freeflow_speed", "km_per_hour", False),
        ("supply.trip_distance", "trip_distance", "km", False),
        ("transit.fare", "transit_fare", "dollars", False),
        ("transit.walk_time", "transit_walk_time", "hours", False),
        ("transit.wait_time", "transit_wait_time", "hours", False),
        ("transit.in_vehicle_time", "transit_in_vehicle_time", "hours", False),
        ("car.parking_fee", "car_parking_fee", "dollars", False),
        ("car.freeflow_time", "car_freeflow_time", "hours", False),
        ("sweep.eta", "eta_sweep", None, True),
        ("policy.implemented_toll", "implemented_toll", "dollars", False),
        ("policy.crossover_reference_eta", "crossover_reference_eta", None, False),
    )
}


def _parse_number(token: str, key: str, factor: float) -> float:
    try:
        value = float(token) * factor
    except ValueError as exc:
        raise ScenarioFormatError(f"{key}: {token!r} is not a number") from exc
    if not math.isfinite(value):
        raise ScenarioFormatError(f"{key}: {token!r} is not finite")
    return value


def _parse_value(row: _Key, raw: str) -> object:
    if not raw:
        raise ScenarioFormatError(f"{row.key}: missing value")
    if row.field == "name":
        return raw
    tokens = raw.split()
    factor = 1.0
    if row.unit is not None:
        unit = tokens.pop()
        if unit not in _UNITS:
            raise ScenarioFormatError(
                f"{row.key}: unit suffix required (got {raw!r}); e.g. '30 dollars', '20 minutes'"
            )
        dimension = _UNITS[row.unit][0]
        unit_dimension, factor = _UNITS[unit]
        if unit_dimension != dimension:
            raise ScenarioFormatError(f"{row.key}: expected a {dimension} unit, got {unit!r}")
    numbers = tuple(
        _parse_number(tok, row.key, factor) for tok in " ".join(tokens).replace(",", " ").split()
    )
    if row.unit is not None and not numbers:
        raise ScenarioFormatError(f"{row.key}: missing value before unit {unit!r}")
    if not row.is_list and len(numbers) != 1:
        raise ScenarioFormatError(f"{row.key}: expected a single number")
    return numbers if row.is_list else numbers[0]


def parse_scenario(text: str) -> Scenario:
    """Parse the scenario text format; errors name the offending key."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ScenarioFormatError(f"line {lineno}: expected 'section.key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ScenarioFormatError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ScenarioFormatError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(_KEYS[key], raw.strip())
    required = {f.name for f in fields(Scenario) if f.default is MISSING}
    missing = [row.key for row in _KEYS.values() if row.key not in values and row.field in required]
    if missing:
        short = ", ".join(k.split(".", 1)[1] for k in missing)
        raise ScenarioFormatError(f"missing required keys: {short}")
    return Scenario(**{_KEYS[key].field: value for key, value in values.items()})


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario back to the text format (parse round-trips exactly)."""
    lines = []
    for row in _KEYS.values():
        value = getattr(scenario, row.field)
        if value is None or (row.is_list and not value):
            continue
        if row.field != "name":
            # repr is the shortest text that parses back to the same float
            value = " ".join(repr(float(v)) for v in (value if row.is_list else (value,)))
        lines.append(f"{row.key} = {value}" + (f" {row.unit}" if row.unit else ""))
    return "\n".join(lines) + "\n"


_BAY_BRIDGE = Scenario(
    name="bay_bridge",
    value_of_time=22.0,
    total_demand=70_000.0,
    arrival_rate=14_000.0,
    early_penalty=0.61,
    late_penalty=2.4,
    transit_fare=6.14,
    transit_walk_time=20.0 / 60.0,
    transit_wait_time=10.0 / 60.0,
    transit_in_vehicle_time=32.0 / 60.0,
    car_parking_fee=30.0,
    car_freeflow_time=21.0 / 60.0,
    eta_sweep=tuple(1.5 + 28.5 * i / 99 for i in range(100)),
    capacity=9_600.0,
    implemented_toll=8.50,
    crossover_reference_eta=2.1,
)

_NYC = Scenario(
    name="nyc",
    value_of_time=40.0,
    total_demand=900_000.0,
    arrival_rate=180_000.0,
    early_penalty=0.61,
    late_penalty=2.4,
    transit_fare=3.0,
    transit_walk_time=20.0 / 60.0,
    transit_wait_time=2.5 / 60.0,
    transit_in_vehicle_time=12.0 / 60.0,
    car_parking_fee=30.0,
    car_freeflow_time=0.15,
    eta_sweep=tuple(1.5 + 16.5 * i / 17 for i in range(18)),
    max_throughput=45_000.0,
    jam_accumulations=(14_000.0, 42_000.0, 70_000.0, 140_000.0),
    freeflow_speed=40.0,
    trip_distance=6.0,
    implemented_toll=9.0,
    crossover_reference_eta=1.7,
)

BUILTIN_SCENARIOS = {"bay_bridge": _BAY_BRIDGE, "nyc": _NYC}


def builtin_scenario(name: str, eta_sweep: tuple[float, ...] | None = None) -> Scenario:
    """Fetch a compiled-in preset by name, optionally overriding the eta sweep."""
    try:
        scenario = BUILTIN_SCENARIOS[name]
    except KeyError as exc:
        known = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise ScenarioFormatError(f"unknown builtin scenario {name!r} (known: {known})") from exc
    if eta_sweep is not None:
        scenario = replace(scenario, eta_sweep=tuple(eta_sweep))
    return scenario
