"""Pinned answers, sizes and seeded inputs shared by both benchmark runs."""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# sha256 of the default sweep CSVs (`sweep --scenario <name>` with no other
# option); any change to a computed number changes them.
BAY_CSV_SHA256 = "12e7dc711f6471c238687865b836737fd6f5af386155d28a644a0bc6c01cddcc"
NYC_CSV_SHA256 = "6019b8a4c6905b190cdddc9a2cbeacbd18af2a1bf106df1a53c99210bd7e7e40"
# `crossover` results, as printed to four decimals.
BAY_CROSSOVER = "1.7622"
NYC_CROSSOVER = "1.8261"
# The presets' eta sweep intervals and lengths; seeded etas fall inside them.
BAY_ETAS = (1.5, 30.0)
NYC_ETAS = (1.5, 18.0)
BAY_SWEEP_ROWS = 100
NYC_SWEEP_ROWS = 18
# The suites `verify --seed s --cases n` runs (tollgap.verify.run_all_suites):
# (name of tollgap.verify.<name>_suite, start of its printed name, seed
# offset, size for n cases).
RANDOM_SUITES = (
    ("oracle_agreement", "oracle agreement", 0, lambda n: n),
    ("optimizer_recovery", "optimizer recovery", 1, lambda n: max(n // 2, 1)),
    ("bound_property", "performance-bound properties", 2, lambda n: n * 10),
    ("mfd_agreement", "urban-network agreement", 3, lambda n: max(n // 10, 1)),
)


@dataclass(frozen=True)
class Size:
    verify_cases: int  # `verify --cases`, and the traced suites' size
    range_rows: int  # rows of the seeded `sweep --eta-range`
    reps: int  # repetitions of a traced call block
    points: int  # scalar closed-form calls per traced block
    draws: int  # oracle calls per traced block
    scenario_points: int | None  # eta points of the traced scenario suites; None: all


FULL = Size(verify_cases=1000, range_rows=18, reps=5, points=2000, draws=20, scenario_points=None)
# For the benchmark's own tests only: every metric, in a few seconds.
TINY = Size(verify_cases=20, range_rows=4, reps=1, points=20, draws=2, scenario_points=3)


@dataclass(frozen=True)
class Inputs:
    """Everything a workload draws from its seed."""

    seed: int
    bay_eta: float
    nyc_eta: float
    range_lo: float
    range_hi: float

    @classmethod
    def from_seed(cls, seed: int) -> "Inputs":
        rng = random.Random(seed)
        return cls(
            seed=seed,
            bay_eta=rng.uniform(*BAY_ETAS),
            nyc_eta=rng.uniform(*NYC_ETAS),
            range_lo=rng.uniform(NYC_ETAS[0], 6.0),
            range_hi=rng.uniform(12.0, NYC_ETAS[1]),
        )


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def child_env() -> dict[str, str]:
    """The environment of every child: `src` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
