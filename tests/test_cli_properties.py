"""Property test over the argparse surface: every invocation ends in an exit code.

Finite, nonfinite, zero and negative values for the numeric flags, and for
any one number in a scenario file, must give exit 0, 1 or 2 (or a usage
error's ``SystemExit(1)``), never an uncaught exception.  Draws stay cheap: at
most 2 random cases, at most 4 eta-range points, and no scenario file for
``verify``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tollgap import cli
from tollgap.calibration import builtin_scenario, serialize_scenario

EDGE_FLOATS = [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1e-300, 1e300]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-50.0, 50.0))
JAM = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-1e6, 1e6))
SCENARIOS = st.sampled_from(["bay_bridge", "nyc"])


def _flag(name: str, value) -> list[str]:
    # ``--flag=value`` keeps argparse from reading "-inf" as an option.
    return [] if value is None else [f"--{name}={value!r}"]


@st.composite
def cli_argv(draw, out_path: str) -> list[str]:
    command = draw(st.sampled_from(["analyze", "crossover", "sweep", "verify"]))
    if command == "verify":
        return [
            "verify",
            "--scenario",
            draw(st.sampled_from(["random", "bay_bridge", "nyc"])),
            *_flag("cases", draw(st.integers(-3, 2))),
        ]
    argv = [command, "--scenario", draw(SCENARIOS)]
    argv += _flag("nj", draw(st.none() | JAM))
    if command == "analyze":
        argv += _flag("eta", draw(FLOATS))
    if command == "sweep":
        if draw(st.booleans()):
            lo, hi, n = draw(FLOATS), draw(FLOATS), draw(st.integers(-1, 4))
            argv.append(f"--eta-range={lo!r}:{hi!r}:{n}")
        argv += ["--out", out_path]
    return argv


@pytest.fixture(scope="module")
def out_path(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("cli") / "sweep.csv")


def test_every_invocation_exits_with_a_code(out_path):
    @settings(max_examples=60, deadline=None, database=None)
    @given(argv=cli_argv(out_path))
    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # a usage error is an input error
            assert exc.code == 1, argv
        else:
            assert code in (0, 1, 2), argv

    run()


@st.composite
def scenario_file_argv(draw, scenario_path: str, out_path: str) -> list[str]:
    """A CLI call on a serialized preset with one number set to an edge value."""
    lines = serialize_scenario(builtin_scenario(draw(SCENARIOS))).splitlines()
    i = draw(st.integers(1, len(lines) - 1))  # line 0 is scenario.name
    key, _, rest = lines[i].partition(" = ")
    tokens = rest.split()
    numeric = [j for j, tok in enumerate(tokens) if tok[0].isdigit()]
    tokens[draw(st.sampled_from(numeric))] = repr(draw(st.sampled_from(EDGE_FLOATS)))
    lines[i] = f"{key} = {' '.join(tokens)}"
    with open(scenario_path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    command = draw(st.sampled_from(["analyze", "crossover", "sweep"]))
    argv = [command, "--scenario", scenario_path]
    if command == "analyze":
        argv.append(f"--eta={draw(st.sampled_from([1.5, 3.0, 9.0]))!r}")
    if command == "sweep":
        argv += ["--out", out_path]
    return argv


def test_every_scenario_file_call_exits_with_a_code(out_path):
    scenario_path = out_path.replace("sweep.csv", "edge.scenario")

    @settings(max_examples=40, deadline=None, database=None)
    @given(argv=scenario_file_argv(scenario_path, out_path))
    def run(argv):
        assert cli.main(argv) in (0, 1, 2), argv

    run()
