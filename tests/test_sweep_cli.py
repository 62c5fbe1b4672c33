import csv

import pytest

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

    def test_verify_small_run_passes(self, capsys):
        assert cli.main(["verify", "--cases", "5", "--dt", "1e-3", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4

    def test_verify_scenario_mode(self, capsys):
        assert cli.main(["verify", "--scenario", "nyc", "--dt", "1e-3"]) == 0
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

    def test_crossover_zero_toll_solves_gap_root(self):
        import dataclasses

        zero = dataclasses.replace(BAY, implemented_toll=0.0)
        eta = cli.crossover_eta(zero)
        params = zero.params(eta)
        assert params.cost_gap == pytest.approx(0.0, abs=1e-8)
