"""Scenario ingestion: real-world inputs to normalized model parameters.

Monetary quantities enter in dollars and leave in hours (divided by the
scenario's value of waiting time); minute-denominated times are converted at
parse time.  Two presets ship compiled in: ``bay_bridge`` (a fixed-capacity
bridge corridor with a rail alternative) and ``nyc`` (an urban cordon zone
described by a triangular flow diagram with a subway alternative).

Scenario files are line oriented, one ``section.key = value [unit]`` per
line, ``#`` comments allowed.  Units are mandatory for dollar, time,
distance, and speed quantities so a bare number can never silently change
meaning; dimensionless quantities take no unit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .core import BottleneckParams, ParameterError
from .mfd import TriangularMfd

__all__ = [
    "ScenarioFormatError",
    "TransitCostSpec",
    "CarCostSpec",
    "Scenario",
    "transit_cost",
    "car_cost",
    "parse_scenario",
    "load_scenario",
    "serialize_scenario",
    "builtin_scenario",
    "BUILTIN_SCENARIOS",
]


class ScenarioFormatError(ValueError):
    """A scenario file violates the format; the message names the key."""


@dataclass(frozen=True)
class TransitCostSpec:
    """Components of the transit generalized cost.

    Times are hours; :func:`transit_cost` scales every time component (not
    the fare) by the discomfort multiplier, to reflect that transit minutes
    are perceived as more onerous than driving minutes.
    """

    fare: float
    walk_time: float
    wait_time: float
    in_vehicle_time: float

    def __post_init__(self) -> None:
        for name in ("fare", "walk_time", "wait_time", "in_vehicle_time"):
            if getattr(self, name) < 0:
                raise ParameterError(f"transit {name} must be nonnegative")


@dataclass(frozen=True)
class CarCostSpec:
    """Components of the car free-flow generalized cost (fee in dollars, time in hours)."""

    parking_fee: float
    freeflow_time: float

    def __post_init__(self) -> None:
        if self.parking_fee < 0 or self.freeflow_time < 0:
            raise ParameterError("car cost components must be nonnegative")


def transit_cost(spec: TransitCostSpec, value_of_time: float, discomfort: float) -> float:
    """Normalized transit cost: fare/value_of_time + eta * (walk + wait + ride)."""
    if value_of_time <= 0:
        raise ParameterError("value_of_time must be positive")
    return spec.fare / value_of_time + discomfort * (
        spec.walk_time + spec.wait_time + spec.in_vehicle_time
    )


def car_cost(spec: CarCostSpec, value_of_time: float) -> float:
    """Normalized car free-flow cost: parking/value_of_time + free-flow time."""
    if value_of_time <= 0:
        raise ParameterError("value_of_time must be positive")
    return spec.parking_fee / value_of_time + spec.freeflow_time


@dataclass(frozen=True)
class Scenario:
    """A calibrated case study: demand, supply, mode costs, and the eta sweep.

    Exactly one of ``capacity`` (fixed bottleneck) or the four flow-diagram
    fields (urban network) is present.  ``jam_accumulations`` may list
    several candidate jam levels; single-run commands use the largest and
    sweep commands must report any divergence across the set.
    """

    name: str
    value_of_time: float
    total_demand: float
    arrival_rate: float
    early_penalty: float
    late_penalty: float
    transit: TransitCostSpec
    car: CarCostSpec
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
        if not self.eta_sweep:
            raise ScenarioFormatError("sweep.eta must list at least one value")
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

    def mfd(self, jam_accumulation: float | None = None) -> TriangularMfd:
        if not self.is_mfd:
            raise ParameterError(f"scenario {self.name!r} has a fixed-capacity supply")
        return TriangularMfd(
            max_throughput=self.max_throughput,
            jam_accumulation=(
                self.default_jam_accumulation if jam_accumulation is None else jam_accumulation
            ),
            freeflow_speed=self.freeflow_speed,
            trip_distance=self.trip_distance,
        )

    def params(self, eta: float) -> BottleneckParams:
        """Model parameters at a given discomfort multiplier.

        For urban scenarios the capacity slot carries the maximum throughput,
        which is what the dynamic benchmarks and guarantee checks use.
        """
        return BottleneckParams(
            total_demand=self.total_demand,
            arrival_rate=self.arrival_rate,
            capacity=self.capacity if self.capacity is not None else self.max_throughput,
            early_penalty=self.early_penalty,
            late_penalty=self.late_penalty,
            car_freeflow_cost=car_cost(self.car, self.value_of_time),
            transit_cost=transit_cost(self.transit, self.value_of_time, discomfort=eta),
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

# key -> (required, dimension or None for dimensionless/bare, list-valued?)
_KEYS = {
    "scenario.name": (True, "name", False),
    "scenario.value_of_time": (True, "money_rate", False),
    "demand.total": (True, "count", False),
    "demand.arrival_rate": (True, "rate", False),
    "schedule.early_penalty": (True, None, False),
    "schedule.late_penalty": (True, None, False),
    "supply.capacity": (False, "rate", False),
    "supply.max_throughput": (False, "rate", False),
    "supply.jam_accumulation": (False, "count", True),
    "supply.freeflow_speed": (False, "speed", False),
    "supply.trip_distance": (False, "distance", False),
    "transit.fare": (True, "money", False),
    "transit.walk_time": (True, "time", False),
    "transit.wait_time": (True, "time", False),
    "transit.in_vehicle_time": (True, "time", False),
    "car.parking_fee": (True, "money", False),
    "car.freeflow_time": (True, "time", False),
    "sweep.eta": (True, None, True),
    "policy.implemented_toll": (False, "money", False),
    "policy.crossover_reference_eta": (False, None, False),
}


def _parse_number(token: str, key: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise ScenarioFormatError(f"{key}: {token!r} is not a number") from exc


def _parse_value(key: str, raw: str) -> object:
    required, dimension, is_list = _KEYS[key]
    if dimension == "name":
        return raw.strip()
    parts = raw.split()
    if not parts:
        raise ScenarioFormatError(f"{key}: missing value")
    if dimension is None:
        numbers = [
            _parse_number(tok, key) for tok in raw.replace(",", " ").split()
        ]
        if not is_list and len(numbers) != 1:
            raise ScenarioFormatError(f"{key}: expected a single number")
        return numbers if is_list else numbers[0]
    unit = parts[-1]
    if unit not in _UNITS:
        raise ScenarioFormatError(
            f"{key}: unit suffix required (got {raw!r}); e.g. '30 dollars', '20 minutes'"
        )
    unit_dim, factor = _UNITS[unit]
    if unit_dim != dimension:
        raise ScenarioFormatError(f"{key}: expected a {dimension} unit, got {unit!r}")
    numbers = [
        _parse_number(tok, key) * factor
        for tok in " ".join(parts[:-1]).replace(",", " ").split()
    ]
    if not numbers:
        raise ScenarioFormatError(f"{key}: missing value before unit {unit!r}")
    if not is_list and len(numbers) != 1:
        raise ScenarioFormatError(f"{key}: expected a single number")
    return numbers if is_list else numbers[0]


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
        values[key] = _parse_value(key, raw.strip())
    missing = [k for k, (required, _, _) in _KEYS.items() if required and k not in values]
    if missing:
        short = ", ".join(k.split(".", 1)[1] for k in missing)
        raise ScenarioFormatError(f"missing required keys: {short}")

    def get(key: str, default=None):
        return values.get(key, default)

    jam = get("supply.jam_accumulation")
    return Scenario(
        name=get("scenario.name"),
        value_of_time=get("scenario.value_of_time"),
        total_demand=get("demand.total"),
        arrival_rate=get("demand.arrival_rate"),
        early_penalty=get("schedule.early_penalty"),
        late_penalty=get("schedule.late_penalty"),
        transit=TransitCostSpec(
            fare=get("transit.fare"),
            walk_time=get("transit.walk_time"),
            wait_time=get("transit.wait_time"),
            in_vehicle_time=get("transit.in_vehicle_time"),
        ),
        car=CarCostSpec(
            parking_fee=get("car.parking_fee"),
            freeflow_time=get("car.freeflow_time"),
        ),
        eta_sweep=tuple(get("sweep.eta")),
        capacity=get("supply.capacity"),
        max_throughput=get("supply.max_throughput"),
        jam_accumulations=tuple(jam) if jam else (),
        freeflow_speed=get("supply.freeflow_speed"),
        trip_distance=get("supply.trip_distance"),
        implemented_toll=get("policy.implemented_toll"),
        crossover_reference_eta=get("policy.crossover_reference_eta"),
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


def _fmt(value: float) -> str:
    return repr(float(value))  # shortest representation that round-trips exactly


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario back to the text format (parse round-trips exactly)."""
    lines = [
        f"scenario.name = {scenario.name}",
        f"scenario.value_of_time = {_fmt(scenario.value_of_time)} dollars_per_hour",
        f"demand.total = {_fmt(scenario.total_demand)} users",
        f"demand.arrival_rate = {_fmt(scenario.arrival_rate)} users_per_hour",
        f"schedule.early_penalty = {_fmt(scenario.early_penalty)}",
        f"schedule.late_penalty = {_fmt(scenario.late_penalty)}",
    ]
    if scenario.capacity is not None:
        lines.append(f"supply.capacity = {_fmt(scenario.capacity)} vehicles_per_hour")
    else:
        lines.append(f"supply.max_throughput = {_fmt(scenario.max_throughput)} vehicles_per_hour")
        jams = " ".join(_fmt(v) for v in scenario.jam_accumulations)
        lines.append(f"supply.jam_accumulation = {jams} vehicles")
        lines.append(f"supply.freeflow_speed = {_fmt(scenario.freeflow_speed)} km_per_hour")
        lines.append(f"supply.trip_distance = {_fmt(scenario.trip_distance)} km")
    lines += [
        f"transit.fare = {_fmt(scenario.transit.fare)} dollars",
        f"transit.walk_time = {_fmt(scenario.transit.walk_time)} hours",
        f"transit.wait_time = {_fmt(scenario.transit.wait_time)} hours",
        f"transit.in_vehicle_time = {_fmt(scenario.transit.in_vehicle_time)} hours",
        f"car.parking_fee = {_fmt(scenario.car.parking_fee)} dollars",
        f"car.freeflow_time = {_fmt(scenario.car.freeflow_time)} hours",
        "sweep.eta = " + " ".join(_fmt(v) for v in scenario.eta_sweep),
    ]
    if scenario.implemented_toll is not None:
        lines.append(f"policy.implemented_toll = {_fmt(scenario.implemented_toll)} dollars")
    if scenario.crossover_reference_eta is not None:
        lines.append(
            f"policy.crossover_reference_eta = {_fmt(scenario.crossover_reference_eta)}"
        )
    return "\n".join(lines) + "\n"


_BAY_BRIDGE = Scenario(
    name="bay_bridge",
    value_of_time=22.0,
    total_demand=70_000.0,
    arrival_rate=14_000.0,
    early_penalty=0.61,
    late_penalty=2.4,
    transit=TransitCostSpec(
        fare=6.14, walk_time=20.0 / 60.0, wait_time=10.0 / 60.0, in_vehicle_time=32.0 / 60.0
    ),
    car=CarCostSpec(parking_fee=30.0, freeflow_time=21.0 / 60.0),
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
    transit=TransitCostSpec(
        fare=3.0, walk_time=20.0 / 60.0, wait_time=2.5 / 60.0, in_vehicle_time=12.0 / 60.0
    ),
    car=CarCostSpec(parking_fee=30.0, freeflow_time=0.15),
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
