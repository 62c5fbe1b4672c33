import argparse
import csv
import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import tollgap
from tollgap import Regime, bottleneck, cli, sweep, verify
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

    def test_default_nyc_sweep_computes_each_row_once(self, monkeypatch, tmp_path, capsys):
        from tollgap import mfd

        calls = {"search": 0, "scan": 0, "dynamic_revenue_optimal": 0, "dynamic_so_design": 0}

        def counted(module, name, key, counts=lambda *args: True):
            real = getattr(module, name)

            def wrapped(*args):
                calls[key] += counts(*args)
                return real(*args)

            monkeypatch.setattr(module, name, wrapped)

        counted(mfd, "static_optima", "search")
        counted(mfd, "_slopes", "scan", lambda p, net, toll: getattr(toll, "shape", ()) == (65,))
        counted(bottleneck, "dynamic_revenue_optimal", "dynamic_revenue_optimal")
        counted(bottleneck, "dynamic_so_design", "dynamic_so_design")
        assert cli.main(["sweep", "--scenario", "nyc", "--out", str(tmp_path / "nyc.csv")]) == 0
        # 18 etas at 4 jam levels: one search of each of the 72 sets, each with
        # its own slope scan, and one pair of trapezoid designs an eta, whatever the level.
        assert calls == {
            "search": 72, "scan": 72, "dynamic_revenue_optimal": 18, "dynamic_so_design": 18
        }
        assert "results identical across levels" in capsys.readouterr().out

    def test_nj_at_the_default_level_writes_the_default_csv(self, tmp_path, capsys):
        default, pinned = tmp_path / "default.csv", tmp_path / "pinned.csv"
        assert cli.main(["sweep", "--scenario", "nyc", "--out", str(default)]) == 0
        assert cli.main(["sweep", "--scenario", "nyc", "--nj=140000", "--out", str(pinned)]) == 0
        assert pinned.read_bytes() == default.read_bytes()
        # --nj leaves one jam level, so only the default sweep reports the levels.
        assert capsys.readouterr().out.count("jam-accumulation") == 1

    def test_single_level_urban_sweep_prints_no_jam_line(self, tmp_path, capsys):
        path = tmp_path / "one_level.scenario"
        path.write_text(serialize_scenario(dataclasses.replace(NYC, jam_accumulations=(70_000.0,))))
        out = tmp_path / "rows.csv"
        argv = ["sweep", "--scenario", str(path), "--eta-range", "2:9:3", "--out", str(out)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == f"wrote 3 rows to {out}\n"

    def test_bottleneck_rows_read_the_pieces_of_their_optima(self, monkeypatch, tmp_path):
        real, tolls = bottleneck._flat_toll, []

        def counted(params, toll):
            tolls.append(toll)
            return real(params, toll)

        monkeypatch.setattr(bottleneck, "_flat_toll", counted)
        assert cli.main(["sweep", "--scenario", "bay_bridge", "--out", str(tmp_path / "b.csv")]) == 0
        # A row evaluates the revenue optimum and the cost optimum's three
        # candidates (both band ends, and the lower end again in place of the
        # stationary point: bay's mu/lam is above 2/3), and nothing again.
        assert len(tolls) <= 400


class TestCli:
    def test_analyze_exit_and_output(self, capsys):
        assert cli.main(["analyze", "--scenario", "bay_bridge", "--eta", "1.5"]) == 0
        out = capsys.readouterr().out
        assert "mixed_low" in out
        assert "revenue ratio lower bound" in out

    def test_analyze_prints_the_urban_guarantees(self, capsys):
        # nyc at eta 3 is in the low band: the urban floor 2/(3 - mu_f/lam) holds at toll = gap.
        params = NYC.params(3.0)
        assert cli.main(["analyze", "--scenario", "nyc", "--eta", "3"]) == 0
        out = capsys.readouterr().out
        floor = 2.0 / (3.0 - params.capacity / params.arrival_rate)
        assert "  regime: mixed_low\n" in out
        assert "  guarantees: at toll = gap (urban network)\n" in out
        assert f"    revenue ratio lower bound {floor:.5f}\n" in out
        assert "    system-cost ratio upper bound 2.0\n" in out

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

    def test_negative_cost_component_names_the_field(self, tmp_path, capsys):
        path = tmp_path / "negative.scenario"
        text = serialize_scenario(BAY).replace("car.parking_fee = 30.0", "car.parking_fee = -1")
        path.write_text(text)
        assert cli.main(["analyze", "--scenario", str(path), "--eta", "2"]) == 1
        assert capsys.readouterr().err == "error: car_parking_fee must be nonnegative\n"

    def test_zero_jam_accumulation_is_validation_error(self, capsys):
        assert cli.main(["analyze", "--scenario", "nyc", "--eta", "3", "--nj", "0"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "jam_accumulation" in err
        assert "Traceback" not in err

    def test_verify_zero_cases_vacuous(self, capsys):
        assert cli.main(["verify", "--cases", "0"]) == 0
        assert "vacuous" in capsys.readouterr().out

    def test_verify_scenario_file_with_nothing_congested_is_vacuous(self, tmp_path, capsys):
        path = tmp_path / "wide.scenario"
        path.write_text(serialize_scenario(dataclasses.replace(BAY, capacity=20_000.0)))
        assert cli.main(["verify", "--scenario", str(path)]) == 0
        # The leading count stays the sweep's full length.
        assert capsys.readouterr().out == (
            "[PASS] scenario suite (bay_bridge): 100 sweep points, none congested with a "
            "nonnegative gap: vacuous pass (warning: nothing was checked)\n"
        )

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

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["--scenario", "nyc", "--seed", "3"], "--seed", "3"),
            (["--scenario", "bay_bridge", "--cases", "0"], "--cases", "0"),
            (["--scenario", "nyc", "--seed", "42", "--cases", "1000"], "--seed", "42"),
        ],
    )
    def test_verify_scenario_rejects_the_random_suites_flags(self, argv, flag, value, capsys):
        # The scenario suite checks a fixed sweep: a seed or a case count would be ignored.
        assert cli.main(["verify", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {flag} applies to the random suites only; the {argv[1]!r} scenario suite"
            f" checks a fixed sweep, got {value}\n"
        )
        assert captured.out == ""

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
        monkeypatch.setattr("tollgap.verify.run_all_suites", lambda **kw: fake)
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

    def test_fixed_capacity_commands_do_not_import_numpy(self, tmp_path):
        # Only the urban model and verify load numpy; a bay_bridge command, and
        # an urban one where every user rides transit, run on the standard
        # library, and the urban path still runs afterwards.
        script = (
            "import sys\n"
            "from tollgap import cli\n"
            "assert cli.main(['analyze', '--scenario', 'bay_bridge', '--eta', '5']) == 0\n"
            "assert cli.main(['crossover', '--scenario', 'bay_bridge']) == 0\n"
            "assert cli.main(['sweep', '--scenario', 'bay_bridge', '--out', sys.argv[1]]) == 0\n"
            "assert cli.main(['analyze', '--scenario', 'nyc', '--eta', '1.2']) == 0\n"
            "assert cli.main(['sweep', '--scenario', 'nyc', '--eta-range', '1:1.3:4', '--out', sys.argv[1]]) == 0\n"
            "print('check', 'numpy' in sys.modules)\n"
            "assert cli.main(['analyze', '--scenario', 'nyc', '--eta', '2']) == 0\n"
            "assert cli.main(['verify', '--scenario', 'nyc']) == 0\n"
            "assert cli.main(['verify', '--cases', '3']) == 0\n"
            "import tollgap, tollgap.core, tollgap.mfd\n"
            "print('check', 'numpy' in sys.modules)\n"
            "print('check', tollgap.TriangularMfd is tollgap.mfd.TriangularMfd is tollgap.core.TriangularMfd)\n"
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
        checks = [line for line in done.stdout.splitlines() if line.startswith("check ")]
        assert checks == ["check False", "check True", "check True"]

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
    def test_cli_runs_numpy_on_one_thread(self):
        # The CLI asks OpenBLAS for one thread unless the caller set a count.
        script = (
            "from tollgap import cli\n"
            "assert cli.main(['verify', '--scenario', 'nyc']) == 0\n"
            "with open('/proc/self/status') as status:\n"
            "    print([line.split() for line in status if line.startswith('Threads:')])\n"
        )
        src = str(Path(tollgap.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[['Threads:', '1']]"

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
        assert exc.value.code == 1
        assert f"unrecognized arguments: {removed}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, usage, message",
        [
            (["verify", "--cases", "abc"], "usage: tollgap verify", "invalid int value: 'abc'"),
            (["analyze", "--scenario", "nyc"], "usage: tollgap analyze", "required: --eta"),
            (["bogus"], "usage: tollgap ", "invalid choice: 'bogus'"),
            ([], "usage: tollgap ", "required: command"),
        ],
    )
    def test_usage_errors_exit_1(self, argv, usage, message, capsys):
        # A usage error is an input error: exit 1, as the module docstring says,
        # with argparse's usage line; 2 stays a verification failure.
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(usage) and message in err

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tollgap")

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
        nj = float(argv[argv.index("--nj") + 1])
        assert captured.err.rstrip().endswith(f"has a fixed capacity, got {nj:g}")
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
        # n_j/e overflows, so the urban formulas give no number: no result, no file.
        out = tmp_path / "x.csv"
        argv = ["sweep", "--scenario", "nyc", "--eta-range=1:2:2", "--nj=1.7e308", "--out", str(out)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert "error: scenario 'nyc' at eta=2: " in captured.err
        assert "Traceback" not in captured.err and not out.exists()

    def test_overflowing_crossover_stops_where_the_revenue_does(self, capsys):
        # At eta=1 transit dominates and the optimum is the all-transit toll 0;
        # at the window's end the revenue optimum is nan, which stops the search there.
        assert cli.main(["crossover", "--scenario", "nyc", "--nj=1.7e308"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: scenario 'nyc' at eta=30: rev_static_ro = nan is out of range"
            " (the inputs overflow the model)\n"
        )

    def test_large_jam_accumulation_gives_the_bottleneck_numbers(self, tmp_path):
        # As n_j grows the urban model becomes the bottleneck at mu_f; 1e300 is far along.
        out = tmp_path / "x.csv"
        argv = ["sweep", "--scenario", "nyc", "--eta-range=1:2:2", "--nj=1e300", "--out", str(out)]
        assert cli.main(argv) == 0 and out.exists()
        large = dataclasses.replace(NYC, jam_accumulations=(1e300,))
        for eta in NYC.eta_sweep:
            row, params = sweep.compute_row(large, eta), NYC.params(eta)
            tau_ro, ro = bottleneck.static_revenue_optimal_toll(params)
            tau_so, so = bottleneck.static_sc_optimal_toll(params)
            assert row.rev_static_ro == pytest.approx(ro.revenue, rel=2e-15)
            assert row.sc_static_so == pytest.approx(so.total, rel=2e-15)
            if row.regime is Regime.MIXED_LOW:  # both optima sit at the band top, exactly
                assert row.tau_static_ro == tau_ro and row.tau_static_so == tau_so
                assert row.sc_static_ro == pytest.approx(ro.total, rel=2e-15)

    @pytest.mark.parametrize("nj", ["0", "-5", "nan", "inf", "100"])
    @pytest.mark.parametrize("command", [["analyze", "--eta=3"], ["crossover"], ["sweep"]])
    def test_bad_nj_names_the_flag_and_value(self, nj, command, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        if command[0] == "sweep":
            command = [*command, "--out", str(out)]
        assert cli.main([*command, "--scenario", "nyc", f"--nj={nj}"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --nj: ")
        assert captured.err.rstrip().endswith(f"got {float(nj):g}")
        assert captured.out == "" and not out.exists()

    def test_zero_costs_print_nan_ratios_as_the_csv_does(self, tmp_path, capsys):
        # Every cost is zero, so both denominators are: each ratio is nan, in
        # the report as in the CSV.
        zero = {
            "transit.fare": "0 dollars",
            "transit.walk_time": "0 hours",
            "transit.wait_time": "0 hours",
            "transit.in_vehicle_time": "0 hours",
            "car.parking_fee": "0 dollars",
            "car.freeflow_time": "0 hours",
        }
        lines = [l for l in serialize_scenario(BAY).splitlines() if l.split(" = ")[0] not in zero]
        path = tmp_path / "free.scenario"
        path.write_text("\n".join([*lines, *(f"{k} = {v}" for k, v in zero.items())]) + "\n")
        assert cli.main(["analyze", "--scenario", str(path), "--eta", "2"]) == 0
        report = capsys.readouterr().out
        assert "gap 0.00000 h" in report
        assert report.count("ratio nan") == 8 and "ratio 1.0" not in report
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--scenario", str(path), "--eta-range", "2:2:1", "--out", str(out)]) == 0
        with open(out) as handle:
            row = dict(zip(*csv.reader(handle)))
        ratios = [value for name, value in row.items() if "_ratio_" in name]
        assert ratios == ["nan"] * 8

    def test_crossover_evaluates_each_eta_once(self, monkeypatch):
        real, etas = cli.static_ro_toll_dollars, []

        def counted(scenario, eta):
            etas.append(eta)
            return real(scenario, eta)

        monkeypatch.setattr(cli, "static_ro_toll_dollars", counted)
        assert f"{cli.crossover_eta(NYC):.4f}" == "1.8261"
        # Both window ends, then 39 halvings of the 29-wide window down to 1e-10.
        assert len(etas) == len(set(etas)) == 41

    def test_verify_prints_the_failure_total_past_the_listed_ones(self, monkeypatch, capsys):
        real = bottleneck.static_system_cost

        def nan_queuing(*args):
            return dataclasses.replace(real(*args), queuing=math.nan)

        monkeypatch.setattr(bottleneck, "static_system_cost", nan_queuing)
        assert cli.main(["verify", "--scenario", "bay_bridge"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("[FAIL] scenario suite (bay_bridge)")
        listed = lines[1:-1]
        assert len(listed) == 20 and all(line.startswith("    eta=") for line in listed)
        total = len(verify.scenario_suite(BAY).failures)
        assert total > 20
        assert lines[-1] == f"    ... {total} failures in all; the first 20 are listed above"

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
            (["sweep", "--nj=1.7e308"], None, None),
            (["analyze", "--eta=9", "--nj=1.7e308"], None, None),
            (["crossover", "--nj=1.7e308"], None, None),
            (["analyze", "--eta=9"], "demand.arrival_rate", "1e-300 users_per_hour"),
            (["crossover"], "supply.max_throughput", "1e-300 vehicles_per_hour"),
            (["crossover"], "supply.jam_accumulation", "1.7e308 vehicles"),
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
