"""Per-layer run: the layers' public functions, in-process, under spans.

One pass calls every layer on the workload's seeded inputs, each call block
inside a span named ``<module>.<function>``.  Spans (id, name, start, end,
parent id, calls) are kept in memory and written with the run's record.
The spans sit in the benchmark's own code, around calls into the program;
nothing inside ``tollgap`` is instrumented.

The run alternates an untraced pass (spans off) with a traced pass until
``--seconds`` have passed.  Per-layer times are medians over the traced
passes; the tracing overhead is the median traced pass wall time minus the
median untraced one.  Counts must repeat exactly across all passes.

``core`` and ``calibration`` cost microseconds per call and get no spans of
their own: their calls run inside the ``cli`` and ``sweep`` spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial

from common import (
    BAY_CROSSOVER,
    NYC_CROSSOVER,
    NYC_CSV_SHA256,
    OUT,
    RANDOM_SUITES,
    SRC,
    Inputs,
    Size,
    metric,
)

sys.path.insert(0, str(SRC))

from tollgap import bottleneck, cli, mfd, oracle, search, sweep, verify  # noqa: E402
from tollgap.calibration import builtin_scenario  # noqa: E402

# Span name -> unit of its per-call metric, named "<span>_<unit>".
TIMED = {
    "cli.crossover_eta_nyc": "ms",
    "cli.crossover_eta_bay": "ms",
    "sweep.compute_rows": "ms",
    "sweep.compute_rows_serial": "ms",
    "sweep.nj_divergence": "ms",
    "sweep.write_csv": "ms",
    "sweep.compute_row_bay": "us",
    "mfd.static_revenue_optimal": "ms",
    "mfd.static_sc_optimal": "ms",
    "mfd.dynamic_benchmarks": "us",
    "mfd.static_revenue": "us",
    "mfd.static_system_cost": "us",
    "search.grid_refine_max": "ms",
    "bottleneck.static_revenue_optimal_toll": "us",
    "bottleneck.static_system_cost": "us",
    "bottleneck.dynamic_revenue_optimal": "us",
    "bottleneck.performance_bounds": "us",
    "oracle.simulate_static_bottleneck": "ms",
    "oracle.grid_search_static": "us",
    "oracle.integrate_mfd_revenue": "ms",
    "oracle.mfd_shoulder_quadrature": "ms",
    "verify.oracle_agreement": "s",
    "verify.optimizer_recovery": "s",
    "verify.bound_property": "s",
    "verify.mfd_agreement": "s",
    "verify.scenario_bay_bridge": "s",
    "verify.scenario_nyc": "s",
}
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


class Tracer:
    """Spans in memory: [id, name, start, end, parent id, calls]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, calls: int = 1):
        record = [len(self.spans), name, time.perf_counter(), None, self._open[-1] if self._open else None, calls]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def per_call(self) -> dict[str, float]:
        """Seconds per call of each named span."""
        return {name: (end - start) / calls for _, name, start, end, _, calls in self.spans}

    def self_time_by_layer(self) -> dict[str, float]:
        """Span time not covered by child spans, summed per module."""
        own = {sid: end - start for sid, _, start, end, _, _ in self.spans}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        layers: dict[str, float] = {}
        for sid, name, *_ in self.spans:
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + own[sid]
        return layers


class NoTracer:
    """Same interface, records nothing: the untraced pass."""

    _null = contextlib.nullcontext()

    def span(self, name: str, calls: int = 1):
        return self._null


def import_times(env: dict[str, str]) -> tuple[float, float]:
    """(tollgap.cli, outermost scipy imports) cumulative seconds from -X importtime.

    The scipy figure includes what scipy pulls in first, numpy above all.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import tollgap.cli"],
        env=env,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    cli_us = scipy_us = 0
    stack: list[tuple[int, bool]] = []  # (depth, inside a scipy import)
    # Lines come in post-order (children first); reversed, parents come first.
    for line in reversed(proc.stderr.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy_us += int(cumulative)
        if name == "tollgap.cli":
            cli_us = int(cumulative)
        stack.append((depth, inside or is_scipy))
    return cli_us / 1e6, scipy_us / 1e6


def mfd_draws(rng: random.Random, n: int) -> list:
    """(params, network, toll) triples with the toll inside the urban band,
    drawn as the urban verification suite draws them."""
    draws = []
    while len(draws) < n:
        params = verify.sample_params(rng, regime=rng.choice(["low", "mid"]))
        net = verify.sample_mfd(rng, params)
        lo, hi = mfd.static_lower_toll(params, net), params.cost_gap
        if hi > lo:
            draws.append((params, net, max(lo, hi - rng.uniform(0.0, min(hi - lo, 4.0)))))
    return draws


def layer_pass(tracer, inputs: Inputs, size: Size, env: dict[str, str]) -> tuple[dict, list[str]]:
    """Call every layer once, under one root span; returns (values, problems).

    ``values`` holds the work counts and the child-measured import times.

    The root span's self time is the benchmark's own work: drawing inputs
    and checking results.
    """
    with tracer.span("pass"):
        return _layer_pass(tracer, inputs, size, env)


def _layer_pass(tracer, inputs: Inputs, size: Size, env: dict[str, str]) -> tuple[dict, list[str]]:
    rng = random.Random(inputs.seed)
    reps, points, draws = size.reps, size.points, size.draws
    values: dict[str, float] = {}
    problems: list[str] = []
    bay, nyc = builtin_scenario("bay_bridge"), builtin_scenario("nyc")

    with tracer.span("cli.import"):
        values["cli.import_s"], values["cli.import_scipy_s"] = import_times(env)
    with tracer.span("cli.crossover_eta_nyc"):
        eta = cli.crossover_eta(nyc)
    if f"{eta:.4f}" != NYC_CROSSOVER:
        problems.append(f"crossover nyc {eta!r} != {NYC_CROSSOVER}")
    with tracer.span("cli.crossover_eta_bay", calls=20 * reps):
        for _ in range(20 * reps):
            eta = cli.crossover_eta(bay)
    if f"{eta:.4f}" != BAY_CROSSOVER:
        problems.append(f"crossover bay {eta!r} != {BAY_CROSSOVER}")

    with tracer.span("sweep.compute_rows"):
        rows = sweep.compute_rows(nyc, nyc.eta_sweep)
    with tracer.span("sweep.compute_rows_serial"):
        serial = sweep.compute_rows(nyc, nyc.eta_sweep, max_workers=1)
    if serial != rows:
        problems.append("compute_rows: serial rows differ from pooled rows")
    with tracer.span("sweep.nj_divergence"):
        notes = sweep.nj_divergence(nyc, nyc.eta_sweep)
    if notes:
        problems.append(f"nj_divergence: {len(notes)} notes on the nyc preset sweep")
    csv_path = OUT / "trace-nyc.csv"
    with tracer.span("sweep.write_csv"):
        sweep.write_csv(rows, str(csv_path))
    if hashlib.sha256(csv_path.read_bytes()).hexdigest() != NYC_CSV_SHA256:
        problems.append("write_csv: nyc CSV sha256 differs from the pinned value")
    values["sweep.rows"] = len(rows)
    with tracer.span("sweep.compute_row_bay", calls=len(bay.eta_sweep)):
        for eta in bay.eta_sweep:
            sweep.compute_row(bay, eta)

    params, net = nyc.params(inputs.nyc_eta), nyc.mfd()
    lo, hi = mfd.static_lower_toll(params, net), params.cost_gap
    tolls = [rng.uniform(lo, hi) for _ in range(points)]
    with tracer.span("mfd.static_revenue_optimal", calls=reps):
        for _ in range(reps):
            mfd.static_revenue_optimal(params, net)
    with tracer.span("mfd.static_sc_optimal", calls=reps):
        for _ in range(reps):
            mfd.static_sc_optimal(params, net)
    with tracer.span("mfd.dynamic_benchmarks", calls=40 * reps):
        for _ in range(40 * reps):
            mfd.dynamic_benchmarks(params, net)
    with tracer.span("mfd.static_revenue", calls=points):
        for toll in tolls:
            mfd.static_revenue(params, net, toll)
    with tracer.span("mfd.static_system_cost", calls=points):
        for toll in tolls:
            mfd.static_system_cost(params, net, toll)

    evals = 0

    def revenue(toll: float) -> float:
        nonlocal evals
        evals += 1
        return mfd.static_revenue(params, net, toll)

    with tracer.span("search.grid_refine_max", calls=reps):
        for _ in range(reps):
            search.grid_refine_max(revenue, lo, hi, mfd.DEFAULT_GRID_POINTS)
    values["search.grid_refine_max.evals"] = evals // reps

    drawn = [verify.sample_params(rng) for _ in range(points)]
    optima = [bottleneck.static_revenue_optimal_toll(p)[0] for p in drawn]
    with tracer.span("bottleneck.static_revenue_optimal_toll", calls=points):
        for p in drawn:
            bottleneck.static_revenue_optimal_toll(p)
    with tracer.span("bottleneck.static_system_cost", calls=points):
        for p, toll in zip(drawn, optima):
            bottleneck.static_system_cost(p, toll)
    with tracer.span("bottleneck.dynamic_revenue_optimal", calls=points):
        for p in drawn:
            bottleneck.dynamic_revenue_optimal(p)
    with tracer.span("bottleneck.performance_bounds", calls=points):
        for p in drawn:
            bottleneck.performance_bounds(p)

    cases = []
    for _ in range(draws):
        p = verify.sample_params(rng)
        band_lo, band_hi = bottleneck.feasible_toll_band(p)
        cases.append((p, rng.uniform(band_lo, band_hi)))
    nodes = 0
    with tracer.span("oracle.simulate_static_bottleneck", calls=draws):
        for p, toll in cases:
            trace, _, _ = oracle.simulate_static_bottleneck(p, toll, 1e-4)
            nodes += trace.times.size
    values["oracle.simulate_static_bottleneck.nodes"] = nodes
    with tracer.span("oracle.grid_search_static", calls=10 * draws):
        for _ in range(10):
            for p, _ in cases:
                oracle.grid_search_static(p)
    urban = mfd_draws(rng, draws)
    with tracer.span("oracle.integrate_mfd_revenue", calls=draws):
        for p, n, toll in urban:
            oracle.integrate_mfd_revenue(p, n, toll, 1e-4)
    with tracer.span("oracle.mfd_shoulder_quadrature", calls=draws):
        for p, n, toll in urban:
            oracle.mfd_shoulder_quadrature(p, n, toll)

    suites = {
        name: partial(getattr(verify, f"{name}_suite"), inputs.seed + offset, size_of(size.verify_cases))
        for name, _, offset, size_of in RANDOM_SUITES
    }
    for name in ("bay_bridge", "nyc"):
        etas = builtin_scenario(name).eta_sweep[: size.scenario_points]
        suites[f"scenario_{name}"] = partial(verify.scenario_suite, builtin_scenario(name, eta_sweep=etas))
    for name, run_suite in suites.items():
        with tracer.span(f"verify.{name}"):
            result = run_suite()
        values[f"verify.{name}.failures"] = len(result.failures)
    return values, problems


SUITES = (*(name for name, *_ in RANDOM_SUITES), "scenario_bay_bridge", "scenario_nyc")
COUNT_METRICS = (
    "sweep.rows",
    "search.grid_refine_max.evals",
    "oracle.simulate_static_bottleneck.nodes",
    *(f"verify.{name}.failures" for name in SUITES),
)


@dataclass
class LayerPass:
    wall_s: float
    tracer: Tracer | NoTracer
    values: dict[str, float]
    problems: list[str]


def traced(inputs: Inputs, size: Size, seconds: float, env: dict[str, str]) -> dict:
    runs: list[LayerPass] = []
    start = time.perf_counter()
    slowest = 0.0
    # As in the end-to-end run: no pair of passes that would end after `seconds`.
    while not runs or time.perf_counter() - start + slowest <= seconds:
        t0 = time.perf_counter()
        for tracer in (NoTracer(), Tracer()):
            t1 = time.perf_counter()
            values, problems = layer_pass(tracer, inputs, size, env)
            runs.append(LayerPass(time.perf_counter() - t1, tracer, values, problems))
        slowest = max(slowest, time.perf_counter() - t0)
    on = [r for r in runs if isinstance(r.tracer, Tracer)]
    off = [r for r in runs if isinstance(r.tracer, NoTracer)]
    counts = {name: on[0].values[name] for name in COUNT_METRICS}
    problems = sorted({problem for r in runs for problem in r.problems})
    if any(r.values[name] != value for r in runs for name, value in counts.items()):
        problems.append("work counts differ between passes")

    def median(unit: str, per_pass) -> dict:
        return metric(statistics.median(per_pass(r) for r in on), unit, len(on))

    # Import times come from the child's own clock, once per pass.
    metrics = {name: median("s", lambda r: r.values[name]) for name in ("cli.import_s", "cli.import_scipy_s")}
    for span, unit in TIMED.items():
        metrics[f"{span}_{unit}"] = median(unit, lambda r: r.tracer.per_call()[span] * SCALE[unit])
    for name, value in counts.items():
        metrics[name] = metric(value, "count", len(runs))
    overhead = statistics.median(r.wall_s for r in on) - statistics.median(r.wall_s for r in off)
    metrics["trace.overhead_s"] = metric(overhead, "s", len(runs))
    metrics["trace.spans"] = metric(len(on[0].tracer.spans), "count", len(on))
    layers = [r.tracer.self_time_by_layer() for r in on]
    # One attempt per timed block (every span but the root); a failing suite
    # or a wrong result fails one.
    attempted = len(on[0].tracer.spans) - 1
    failing_suites = sum(1 for name, value in counts.items() if name.startswith("verify.") and value)
    failed = min(failing_suites + len(problems), attempted)
    return {
        "metrics": metrics,
        "self_s": {layer: statistics.median(d[layer] for d in layers) for layer in layers[0]},
        "error_rate": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": {"traced_wall_s": [r.wall_s for r in on], "untraced_wall_s": [r.wall_s for r in off]},
        "spans": [
            dict(zip(("id", "name", "start", "end", "parent", "calls"), span), trace=i)
            for i, r in enumerate(on)
            for span in r.tracer.spans
        ],
    }
