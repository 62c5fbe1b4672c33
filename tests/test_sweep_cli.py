import argparse
import csv
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import tollgap
from tollgap import cli, sweep
from tollgap.calibration import builtin_scenario, serialize_scenario
from tollgap.verify import CheckResult

BAY = builtin_scenario("bay_bridge")
NYC = builtin_scenario("nyc")


@pytest.fixture(scope="module")
def bay_rows():
    return sweep.compute_rows(BAY, [1.5, 4.0, 9.0, 12.15151515, 20.0])


class TestSweepRows:
    def test_ratio_sanity(self, bay_rows):
        for row in bay_rows:
            for rev in (row.rev_static_ro, row.rev_static_so, row.rev_dynamic_so):
                assert row.rev_ratio(rev) <= 1.0 + 1e-12
            for sc in (row.sc_static_ro, row.sc_static_so, row.sc_dynamic_ro):
                assert row.sc_ratio(sc) >= 1.0 - 1e-12

    def test_dynamic_ro_is_revenue_max(self, bay_rows):
        for row in bay_rows:
            assert row.rev_dynamic_ro >= max(
                row.rev_static_ro, row.rev_static_so, row.rev_dynamic_so
            ) * (1.0 - 1e-12)

    def test_sc_opt_is_cost_min(self, bay_rows):
        for row in bay_rows:
            floor = min(row.sc_static_ro, row.sc_static_so, row.sc_dynamic_ro)
            assert row.sc_opt <= floor * (1.0 + 1e-12)

    def test_rows_sorted_by_eta(self):
        rows = sweep.compute_rows(BAY, [9.0, 1.5, 4.0])
        assert [row.eta for row in rows] == [1.5, 4.0, 9.0]

    def test_dollar_columns_scale_hours(self, bay_rows):
        for row in bay_rows:
            values = dict(zip(sweep.CSV_HEADER, row.csv_values()))
            got = float(values["tau_static_ro_dollars"])
            want = float(values["tau_static_ro_hours"]) * BAY.value_of_time
            assert got == pytest.approx(want, abs=2e-7)  # 8-decimal print rounding


class TestCsvOutput:
    def test_header_and_determinism(self, tmp_path):
        rows = sweep.compute_rows(BAY, [1.5, 3.0])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        sweep.write_csv(rows, str(a))
        sweep.write_csv(sweep.compute_rows(BAY, [1.5, 3.0]), str(b))
        assert a.read_bytes() == b.read_bytes()
        with open(a) as handle:
            parsed = list(csv.reader(handle))
        assert tuple(parsed[0]) == sweep.CSV_HEADER
        assert len(parsed) == 3

    def test_empty_sweep_writes_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        sweep.write_csv([], str(out))
        with open(out) as handle:
            parsed = list(csv.reader(handle))
        assert parsed == [list(sweep.CSV_HEADER)]

    def test_nj_divergence_empty_at_boundary_optimum(self):
        assert sweep.nj_divergence(NYC, [1.5, 18.0]) == []


class TestCli:
    def test_analyze_exit_and_output(self, capsys):
        assert cli.main(["analyze", "--scenario", "bay_bridge", "--eta", "1.5"]) == 0
        out = capsys.readouterr().out
        assert "mixed_low" in out
        assert "revenue ratio lower bound" in out

    def test_analyze_all_transit(self, capsys):
        assert cli.main(["analyze", "--scenario", "bay_bridge", "--eta", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "all users take transit; revenue 0" in out

    def test_sweep_with_eta_range(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code = cli.main(
            [
                "sweep",
                "--scenario",
                "bay_bridge",
                "--eta-range",
                "1.5:5:8",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        with open(out_path) as handle:
            parsed = list(csv.reader(handle))
        assert len(parsed) == 9

    def test_sweep_scenario_file(self, tmp_path):
        path = tmp_path / "custom.scenario"
        path.write_text(serialize_scenario(BAY))
        out_path = tmp_path / "rows.csv"
        code = cli.main(
            ["sweep", "--scenario", str(path), "--eta-range", "1.5:2:2", "--out", str(out_path)]
        )
        assert code == 0

    def test_missing_scenario_is_validation_error(self, capsys):
        assert cli.main(["analyze", "--scenario", "/nope/missing.scenario", "--eta", "2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_zero_jam_accumulation_is_validation_error(self, capsys):
        assert cli.main(["analyze", "--scenario", "nyc", "--eta", "3", "--nj", "0"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "jam_accumulation" in err
        assert "Traceback" not in err

    def test_verify_zero_cases_vacuous(self, capsys):
        assert cli.main(["verify", "--cases", "0"]) == 0
        assert "vacuous" in capsys.readouterr().out

    def test_verify_negative_cases_is_validation_error(self, capsys):
        assert cli.main(["verify", "--cases", "-3"]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "Traceback" not in captured.err
        assert "[PASS]" not in captured.out

    def test_verify_scenario_negative_cases_is_validation_error(self, capsys):
        assert cli.main(["verify", "--scenario", "nyc", "--cases", "-3"]) == 1
        captured = capsys.readouterr()
        assert "error: the number of cases must be nonnegative, got -3" in captured.err
        assert "[PASS]" not in captured.out

    def test_verify_small_run_passes(self, capsys):
        assert cli.main(["verify", "--cases", "5", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4

    def test_verify_scenario_mode(self, capsys):
        assert cli.main(["verify", "--scenario", "nyc"]) == 0
        out = capsys.readouterr().out
        assert "scenario suite (nyc)" in out and "[PASS]" in out

    def test_verify_failure_exit_code(self, monkeypatch, capsys):
        fake = [CheckResult(name="forced", ok=False, worst=1.0, detail="forced failure")]
        monkeypatch.setattr(cli.verify, "run_all_suites", lambda **kw: fake)
        assert cli.main(["verify", "--cases", "3"]) == 2
        assert "[FAIL] forced" in capsys.readouterr().out

    def test_crossover_nyc(self, capsys):
        assert cli.main(["crossover", "--scenario", "nyc"]) == 0
        out = capsys.readouterr().out
        assert "crossover eta: 1.8261" in out
        assert "reference estimate" in out

    def test_crossover_bay_bridge_reports_discrepancy(self, capsys):
        assert cli.main(["crossover", "--scenario", "bay_bridge"]) == 0
        out = capsys.readouterr().out
        assert "crossover eta: 1.7622" in out
        assert "eta = 2.1" in out
        assert "informational" in out

    def test_cli_commands_import_no_scipy(self, tmp_path):
        # numpy is the only runtime dependency: every command, verify included,
        # runs with scipy made unimportable.
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from tollgap import cli\n"
            "for s in ('nyc', 'bay_bridge'):\n"
            "    assert cli.main(['crossover', '--scenario', s]) == 0\n"
            "    assert cli.main(['analyze', '--scenario', s, '--eta', '2']) == 0\n"
            "    assert cli.main(['sweep', '--scenario', s, '--out', sys.argv[1]]) == 0\n"
            "    assert cli.main(['verify', '--scenario', s]) == 0\n"
            "assert cli.main(['verify', '--cases', '5']) == 0\n"
            "print(sorted(m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod))\n"
        )
        src = str(Path(tollgap.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "out.csv")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--scenario", "nyc", "--eta", "2", "--grid", "512"],
            ["crossover", "--scenario", "nyc", "--grid", "512"],
            ["sweep", "--scenario", "nyc", "--grid", "512"],
            ["verify", "--dt", "1e-4"],
        ],
    )
    def test_grid_flag_is_gone(self, argv, tmp_path, capsys):
        # Removed flags (``--grid``, and ``verify --dt``) are usage errors.
        removed = " ".join(argv[-2:])
        out = tmp_path / "rows.csv"
        if argv[0] == "sweep":
            argv = [*argv, "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {removed}" in capsys.readouterr().err
        assert not out.exists()

    def test_option_strings_are_pinned(self):
        # A new flag is a new configuration to test: adding one changes this table.
        parser = cli.build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: [s for action in sub._actions for s in action.option_strings]
            for name, sub in commands.choices.items()
        }
        assert options == {
            "analyze": ["-h", "--help", "--scenario", "--nj", "--eta"],
            "sweep": ["-h", "--help", "--scenario", "--nj", "--eta-range", "--out"],
            "verify": ["-h", "--help", "--scenario", "--seed", "--cases"],
            "crossover": ["-h", "--help", "--scenario", "--nj"],
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--scenario", "bay_bridge", "--eta", "2", "--nj", "-5"],
            ["crossover", "--scenario", "bay_bridge", "--nj", "14000"],
            ["sweep", "--scenario", "bay_bridge", "--nj", "14000"],
        ],
    )
    def test_nj_on_fixed_capacity_scenario_is_validation_error(self, argv, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        if argv[0] == "sweep":
            argv = [*argv, "--out", str(out)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert "error: --nj applies to urban scenarios only" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("bounds", ["1:inf:2", "nan:2:2", "-inf:3:4"])
    def test_nonfinite_eta_range_names_the_flag(self, bounds, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert cli.main(["sweep", "--scenario", "bay_bridge", f"--eta-range={bounds}", "--out", out]) == 1
        assert "error: --eta-range bounds must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("eta", ["nan", "inf", "-inf"])
    def test_nonfinite_eta_names_the_flag(self, eta, capsys):
        assert cli.main(["analyze", "--scenario", "nyc", f"--eta={eta}"]) == 1
        assert f"error: --eta must be finite, got {eta}" in capsys.readouterr().err

    @pytest.mark.parametrize("eta", ["-1", "0"])
    def test_nonpositive_eta_names_the_flag(self, eta, capsys):
        assert cli.main(["analyze", "--scenario", "nyc", f"--eta={eta}"]) == 1
        captured = capsys.readouterr()
        assert f"error: --eta must be positive, got {eta}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("bounds", ["-1:2:2", "0:2:2", "-3:-1:2", "-1:-1:1"])
    def test_nonpositive_eta_range_names_the_flag(self, bounds, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["sweep", "--scenario", "bay_bridge", f"--eta-range={bounds}", "--out", str(out)]
        assert cli.main(argv) == 1
        assert "error: --eta-range bounds must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_jam_accumulation_is_validation_error(self, tmp_path, capsys):
        # The urban formulas overflow to a negative system cost: no result, no file.
        out = tmp_path / "x.csv"
        argv = ["sweep", "--scenario", "nyc", "--eta-range=1:2:2", "--nj=1e300", "--out", str(out)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert "error: scenario 'nyc' at eta=2: " in captured.err
        assert "Traceback" not in captured.err and not out.exists()

    def test_crossover_zero_toll_solves_gap_root(self):
        import dataclasses

        zero = dataclasses.replace(BAY, implemented_toll=0.0)
        eta = cli.crossover_eta(zero)
        params = zero.params(eta)
        assert params.cost_gap == pytest.approx(0.0, abs=1e-8)

    def test_crossover_outside_the_window_prints_it(self, tmp_path, capsys):
        import dataclasses

        path = tmp_path / "dear.scenario"
        path.write_text(serialize_scenario(dataclasses.replace(BAY, implemented_toll=1000.0)))
        assert cli.main(["crossover", "--scenario", str(path)]) == 0
        assert "no crossover in eta range [1, 30]" in capsys.readouterr().out
        assert cli.CROSSOVER_WINDOW == (1.0, 30.0)


def _scenario_with(tmp_path, key: str, value: str, base=BAY) -> str:
    """Write the ``base`` preset with ``key`` set to ``value``; return the path."""
    lines = [l for l in serialize_scenario(base).splitlines() if not l.startswith(f"{key} =")]
    path = tmp_path / "edited.scenario"
    path.write_text("\n".join([*lines, f"{key} = {value}".rstrip()]) + "\n")
    return str(path)


class TestScenarioFileValues:
    @pytest.mark.parametrize(
        "command, key, value",
        [
            (["crossover"], "policy.implemented_toll", "nan dollars"),
            (["analyze", "--eta=2"], "scenario.value_of_time", "inf dollars_per_hour"),
            (["crossover"], "policy.crossover_reference_eta", "nan"),
        ],
    )
    def test_nonfinite_value_names_the_key(self, command, key, value, tmp_path, capsys):
        path = _scenario_with(tmp_path, key, value)
        assert cli.main([*command, "--scenario", path]) == 1
        captured = capsys.readouterr()
        token = value.split()[0]
        assert f"error: {key}: '{token}' is not finite" in captured.err
        assert captured.out == ""

    def test_empty_name_is_validation_error(self, tmp_path, capsys):
        path = _scenario_with(tmp_path, "scenario.name", "")
        assert cli.main(["analyze", "--scenario", path, "--eta", "2"]) == 1
        assert "error: scenario.name: missing value" in capsys.readouterr().err

    def test_negative_implemented_toll_is_validation_error(self, tmp_path, capsys):
        path = _scenario_with(tmp_path, "policy.implemented_toll", "-3 dollars")
        assert cli.main(["crossover", "--scenario", path]) == 1
        captured = capsys.readouterr()
        assert "error: implemented_toll must be nonnegative" in captured.err
        assert "$-3.00" not in captured.out

    @pytest.mark.parametrize(
        "key, value",
        [
            ("sweep.eta", "-1.0 2.0"),
            ("sweep.eta", "0 2.0"),
            ("policy.crossover_reference_eta", "-5"),
            ("policy.crossover_reference_eta", "0"),
        ],
    )
    @pytest.mark.parametrize("command", [["crossover"], ["analyze", "--eta=2"], ["sweep"]])
    def test_nonpositive_multiplier_names_the_key(self, key, value, command, tmp_path, capsys):
        path = _scenario_with(tmp_path, key, value)
        out = tmp_path / "rows.csv"
        if command[0] == "sweep":
            command = [*command, "--out", str(out)]
        assert cli.main([*command, "--scenario", path]) == 1
        captured = capsys.readouterr()
        assert f"error: {key}" in captured.err and "must be positive" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "key, value, base",
        [
            ("demand.total", "1e300 users", BAY),
            ("demand.total", "1e300 users", NYC),
            ("scenario.value_of_time", "1e308 dollars_per_hour", BAY),
        ],
    )
    @pytest.mark.parametrize("command", [["analyze", "--eta=9"], ["sweep"]])
    def test_overflow_is_validation_error(self, key, value, base, command, tmp_path, capsys):
        path = _scenario_with(tmp_path, key, value, base)
        out = tmp_path / "rows.csv"
        if command[0] == "sweep":
            command = [*command, "--out", str(out)]
        assert cli.main([*command, "--scenario", path]) == 1
        captured = capsys.readouterr()
        assert f"error: scenario {base.name!r} at eta=" in captured.err
        assert "is out of range" in captured.err
        assert "Traceback" not in captured.err and "nan" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key, value",
        [
            (["sweep", "--nj=1e300"], None, None),
            (["analyze", "--eta=9", "--nj=1e300"], None, None),
            (["crossover", "--nj=1e300"], None, None),
            (["analyze", "--eta=9"], "demand.arrival_rate", "1e-300 users_per_hour"),
            (["crossover"], "supply.max_throughput", "1e-300 vehicles_per_hour"),
            (["crossover"], "supply.jam_accumulation", "1e300 vehicles"),
        ],
    )
    def test_overflow_writes_only_the_error_line(self, command, key, value, tmp_path, capsys):
        # No numpy warning and no partial report precede the overflow guard's message.
        scenario = "nyc" if key is None else _scenario_with(tmp_path, key, value, NYC)
        out = tmp_path / "rows.csv"
        if command[0] == "sweep":
            command = [*command, "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([*command, "--scenario", scenario]) == 1
        captured = capsys.readouterr()
        assert [str(w.message) for w in caught] == []
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: scenario 'nyc' at eta=")
        assert captured.err.count("\n") == 1

    def test_huge_demand_crossover_is_validation_error(self, tmp_path, capsys):
        path = _scenario_with(tmp_path, "demand.total", "1e300 users", NYC)
        assert cli.main(["crossover", "--scenario", path]) == 1
        captured = capsys.readouterr()
        assert "error: scenario 'nyc' at eta=" in captured.err and "ratio" not in captured.out

    def test_huge_value_of_time_has_no_crossover(self, tmp_path, capsys):
        # Every dollar toll in the window dwarfs the live $9 toll, so no root
        # lies inside; the two window ends' objectives (4.2e299 and 1.3e301)
        # are compared by sign, since their product overflows.
        path = _scenario_with(tmp_path, "scenario.value_of_time", "1e300 dollars_per_hour", NYC)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["crossover", "--scenario", path]) == 0
        assert "no crossover in eta range [1, 30]" in capsys.readouterr().out
