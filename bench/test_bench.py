"""Tests of the benchmark itself, at tiny sizes: `python -m pytest bench`.

They stay out of the repository's own test run, which collects `tests/` only.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
COUNTS = [m["name"] for m in DECLARED["per_layer"] if m["unit"] == "count"]


def run_tiny(workload: str, trace: int, seed: int = 42, seconds: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--tiny"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_emits_every_metric_with_its_unit(workload, trace):
    result = run_tiny(workload, trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert units(result) == {m["name"]: m["unit"] for m in declared}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_work_counts_repeat_and_overhead_is_reported():
    first, second = (run_tiny("sweep-nyc", 1) for _ in range(2))
    assert COUNTS
    assert {n: first["metrics"][n]["value"] for n in COUNTS} == {
        n: second["metrics"][n]["value"] for n in COUNTS
    }
    overhead = first["metrics"]["trace.overhead_s"]
    assert overhead["unit"] == "s" and isinstance(overhead["value"], float)


def test_operation_counts_do_not_depend_on_run_length():
    """One pass or several: the same seed reports the same attempted and failed."""
    short, long = run_tiny("verify", 0, seed=1), run_tiny("verify", 0, seed=1, seconds=10)
    assert (short["attempted"], short["failed"]) == (long["attempted"], long["failed"])


def test_refuses_to_run_without_the_program():
    """Only the benchmark's files, no `src/`: exit non-zero, print no result."""
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for name in ("run.py", "common.py", "layers.py"):
        shutil.copy(BENCH_DIR / name, bare / "bench")
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
