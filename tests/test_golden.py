"""Byte-exact outputs of the preset commands.

The default sweep CSVs are pinned by sha256 (the same values as
``bench/common.py``), and so is the benchmark's seeded nyc range sweep; the
printed reports by the files in ``tests/golden``.
A change to any computed number or to the report layout shows here.
"""

import hashlib
from pathlib import Path

import pytest

from tollgap import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CSV_SHA256 = {
    "bay_bridge": "12e7dc711f6471c238687865b836737fd6f5af386155d28a644a0bc6c01cddcc",
    "nyc": "6019b8a4c6905b190cdddc9a2cbeacbd18af2a1bf106df1a53c99210bd7e7e40",
}


@pytest.mark.parametrize("scenario", sorted(CSV_SHA256))
def test_default_sweep_csv_sha256(scenario, tmp_path, capsys):
    out = tmp_path / f"{scenario}.csv"
    assert cli.main(["sweep", "--scenario", scenario, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_SHA256[scenario]


# The seeded range sweep of the benchmark's `sweep-nyc` workload (seed 42): it
# searches every (eta, jam level) set, as the default nyc sweep does.
RANGE_SWEEP = ["sweep", "--scenario", "nyc", "--eta-range", "2.7376319326610368:13.339264428892937:18"]
RANGE_CSV_SHA256 = "96f12952502d23b4991f9a4dabbd6ac725e866190febcd01645e6ef11d2e3252"


def test_range_sweep_csv_sha256(tmp_path, capsys):
    out = tmp_path / "range.csv"
    assert cli.main([*RANGE_SWEEP, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RANGE_CSV_SHA256
    assert capsys.readouterr().out == (
        f"wrote 18 rows to {out}\njam-accumulation sweep: results identical across levels\n"
    )


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["analyze", "--scenario", "bay_bridge", "--eta", "1.0"], "analyze_bay_bridge_1.0.txt"),
        (["analyze", "--scenario", "bay_bridge", "--eta", "1.5"], "analyze_bay_bridge_1.5.txt"),
        (["analyze", "--scenario", "bay_bridge", "--eta", "16"], "analyze_bay_bridge_16.txt"),
        (["analyze", "--scenario", "nyc", "--eta", "9"], "analyze_nyc_9.txt"),
        (["crossover", "--scenario", "bay_bridge"], "crossover_bay_bridge.txt"),
        (["crossover", "--scenario", "nyc"], "crossover_nyc.txt"),
        (["verify", "--scenario", "bay_bridge"], "verify_bay_bridge.txt"),
        (["verify", "--scenario", "nyc"], "verify_nyc.txt"),
        (["verify", "--seed", "42", "--cases", "1000"], "verify_seed42_cases1000.txt"),
        # 513 and 256 recovery sets: case counts no block or chunk size divides.
        (["verify", "--seed", "7", "--cases", "300"], "verify_seed7_cases300.txt"),
        (["verify", "--seed", "1", "--cases", "513"], "verify_seed1_cases513.txt"),
        # The second seed of the committed verify bench records.
        (["verify", "--seed", "9173", "--cases", "1000"], "verify_seed9173_cases1000.txt"),
        (["verify"], "verify_seed42_cases1000.txt"),  # the random suites' defaults
        # The cost optimum sits inside the band, at a root of its slope.
        (["analyze", "--scenario", "nyc", "--eta", "24"], "analyze_nyc_24.txt"),
    ],
)
def test_stdout_matches_golden(argv, golden, capsys):
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / golden).read_text()
    assert captured.err == ""
