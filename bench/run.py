"""Benchmark of the tollgap command line and of its layers.

Run from the repository root:

    python3 bench/run.py --workload cli-oneshot --seed 42 --seconds 30 --trace 0

``--trace 0`` is the end-to-end run.  One closed-loop client runs
``python -m tollgap.cli ...`` as fresh child processes, one at a time, and
starts the next only when the previous one has exited.  It repeats the
workload's pass of commands for ``--seconds`` seconds (at least once) and
checks every output.  It does not start a pass that would end after
``--seconds``, judged by the slowest pass so far.  Set-up is timed as fresh
``import tollgap.cli`` processes, one before each pass and at least five.

``--trace 1`` is the per-layer run (see ``layers.py``): the layers' public
functions are called in-process on the same seeded inputs, once with spans
recorded and once without, for ``--seconds`` seconds.

Human-readable lines come first on standard output.  The last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (machine facts, every sample, the spans of a
traced run) is written to ``bench/out/<workload>-seed<seed>-trace<t>.json``
(``-tiny`` appended for ``--tiny``).

``correct`` is false when an output disagrees with a known answer or is
malformed: a pinned CSV sha256, a row count, a ratio invariant, an expected
line, an exit code that does not match the printed verdicts.  An operation
is one command of the pass; ``attempted`` counts them and ``failed`` counts
those with an invocation in the run that exited non-zero or failed such a
check.  A ``verify`` suite that prints ``[FAIL]`` (exit code 2) fails its
command.  ``error_rate`` is ``failed / attempted``.  Counting commands, not
invocations, keeps both numbers independent of how many passes fit into
``--seconds``, so that runs of the same seed report the same counts.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from common import (
    BAY_CROSSOVER,
    BAY_CSV_SHA256,
    BAY_ETAS,
    BAY_SWEEP_ROWS,
    FULL,
    NYC_CROSSOVER,
    NYC_CSV_SHA256,
    NYC_ETAS,
    NYC_SWEEP_ROWS,
    OUT,
    RANDOM_SUITES,
    ROOT,
    SRC,
    TINY,
    Inputs,
    Size,
    child_env,
    metric,
)

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 60.0  # ten times the slowest command
# Two policies with equal results can differ in the last bits, which an
# 8-decimal CSV value can show; a real breach of an invariant is far larger.
RATIO_SLACK = 1e-8


# --------------------------------------------------------------------------
# Child processes


@dataclass
class Invocation:
    args: list[str]
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    returncode: int
    output: str


def spawn(args: list[str], env: dict[str, str]) -> Invocation:
    """Run one interpreter child to exit; wall time from spawn to exit."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        args=args,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # kilobytes on Linux
        returncode=proc.returncode,
        output=output,
    )


# --------------------------------------------------------------------------
# Output checks.  Each returns (work units, problems); a problem means the
# output is wrong or malformed.


def check_exit(inv: Invocation, want: int) -> list[str]:
    if inv.returncode != want:
        tail = inv.output.strip().splitlines()[-1:] or [""]
        return [f"exit code {inv.returncode}, expected {want}: {tail[0]}"]
    return []


def check_analyze(inv: Invocation) -> tuple[int, list[str]]:
    problems = check_exit(inv, 0)
    lines = inv.output.splitlines()
    if not any(line.startswith("scenario: ") for line in lines) or not any(
        "regime:" in line for line in lines
    ):
        problems.append("analyze: missing scenario or regime line")
    if "all users take transit" in inv.output:
        return 1, problems
    section = None
    ratios = {"revenue": [], "cost": []}
    for line in lines:
        if "revenue (user-hours)" in line:
            section = "revenue"
        elif "system cost (user-hours)" in line:
            section = "cost"
        elif "guarantees:" in line:
            section = None
        elif section and "ratio" in line:
            ratios[section].append(float(line.rsplit("ratio", 1)[1]))
    if len(ratios["revenue"]) != 4 or len(ratios["cost"]) != 4:
        problems.append(f"analyze: expected 4+4 ratio lines, got {ratios}")
    if any(r > 1.0 for r in ratios["revenue"]) or any(r < 1.0 for r in ratios["cost"]):
        problems.append(f"analyze: ratio invariant broken: {ratios}")
    return 1, problems


def check_crossover(want: str, inv: Invocation) -> tuple[int, list[str]]:
    problems = check_exit(inv, 0)
    if f"crossover eta: {want}\n" not in inv.output:
        problems.append(f"crossover: expected 'crossover eta: {want}'")
    return 1, problems


def check_sweep(
    path: Path, etas: list[float], sha256: str | None, inv: Invocation
) -> tuple[int, list[str]]:
    """Row count, eta column, ratio invariants and (if pinned) the sha256."""
    problems = check_exit(inv, 0)
    if f"wrote {len(etas)} rows to " not in inv.output:
        problems.append(f"sweep: missing 'wrote {len(etas)} rows' line")
    if "nyc" in inv.args and "--nj" not in inv.args and "jam-accumulation sweep" not in inv.output:
        problems.append("sweep: missing jam-accumulation line")
    try:
        data = path.read_bytes()
    except OSError as exc:
        return 0, problems + [f"sweep: {exc}"]
    if sha256 is not None and hashlib.sha256(data).hexdigest() != sha256:
        problems.append(f"sweep: {path.name} sha256 differs from the pinned value")
    rows = list(csv.DictReader(data.decode().splitlines()))
    if [row["eta"] for row in rows] != [f"{eta:.8f}" for eta in etas]:
        problems.append(f"sweep: eta column differs from the requested {len(etas)} etas")
    for row in rows:
        for name, value in row.items():
            if name.startswith("rev_ratio_") and not float(value) <= 1.0 + RATIO_SLACK:
                problems.append(f"sweep: eta {row['eta']} {name} = {value} > 1")
            if name.startswith("sc_ratio_") and not float(value) >= 1.0 - RATIO_SLACK:
                problems.append(f"sweep: eta {row['eta']} {name} = {value} < 1")
    return len(rows), problems


VERDICT = re.compile(r"^\[(PASS|FAIL)\] (.*?): (\d+) (parameter sets|draws|random triples|sweep points)")


def check_verify(expected: list[tuple[str, int]], inv: Invocation) -> tuple[int, list[str]]:
    """Every expected suite line present with its size; exit 2 iff a [FAIL]."""
    seen = {}
    failing = False
    for line in inv.output.splitlines():
        match = VERDICT.match(line)
        if match:
            failing = failing or match[1] == "FAIL"
            seen[match[2]] = int(match[3])
    problems = check_exit(inv, 2 if failing else 0)
    units = 0
    for prefix, count in expected:
        got = [n for name, n in seen.items() if name.startswith(prefix)]
        if got != [count]:
            problems.append(f"verify: expected one '{prefix}' line over {count}, got {got}")
        units += sum(got)
    return units, problems


# --------------------------------------------------------------------------
# Workloads: a pass is a list of (CLI arguments, check).

Op = tuple[list[str], Callable[[Invocation], tuple[int, list[str]]]]


def eta_grid(lo: float, hi: float, n: int) -> list[float]:
    """The etas `--eta-range lo:hi:n` asks for."""
    return [lo] if n == 1 else [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def cli_oneshot(inputs: Inputs, size: Size) -> list[Op]:
    bay_csv = OUT / "cli-oneshot-bay_bridge.csv"
    bay_default = eta_grid(*BAY_ETAS, BAY_SWEEP_ROWS)
    return [
        (["analyze", "--scenario", "bay_bridge", "--eta", repr(inputs.bay_eta)], check_analyze),
        (["analyze", "--scenario", "nyc", "--eta", repr(inputs.nyc_eta)], check_analyze),
        (["crossover", "--scenario", "bay_bridge"], lambda inv: check_crossover(BAY_CROSSOVER, inv)),
        (["crossover", "--scenario", "nyc"], lambda inv: check_crossover(NYC_CROSSOVER, inv)),
        (
            ["sweep", "--scenario", "bay_bridge", "--out", str(bay_csv)],
            # One invocation is one work unit here, whatever its row count.
            lambda inv: (1, check_sweep(bay_csv, bay_default, BAY_CSV_SHA256, inv)[1]),
        ),
    ]


def sweep_nyc(inputs: Inputs, size: Size) -> list[Op]:
    default_csv = OUT / "sweep-nyc-default.csv"
    range_csv = OUT / "sweep-nyc-range.csv"
    spec = f"{inputs.range_lo!r}:{inputs.range_hi!r}:{size.range_rows}"
    nyc_default = eta_grid(*NYC_ETAS, NYC_SWEEP_ROWS)
    range_etas = eta_grid(inputs.range_lo, inputs.range_hi, size.range_rows)
    return [
        (
            ["sweep", "--scenario", "nyc", "--out", str(default_csv)],
            lambda inv: check_sweep(default_csv, nyc_default, NYC_CSV_SHA256, inv),
        ),
        (
            ["sweep", "--scenario", "nyc", "--eta-range", spec, "--out", str(range_csv)],
            lambda inv: check_sweep(range_csv, range_etas, None, inv),
        ),
    ]


def verify(inputs: Inputs, size: Size) -> list[Op]:
    cases = size.verify_cases
    suites = [(printed, size_of(cases)) for _, printed, _, size_of in RANDOM_SUITES]
    return [
        (
            ["verify", "--seed", str(inputs.seed), "--cases", str(cases)],
            lambda inv: check_verify(suites, inv),
        ),
        (
            ["verify", "--scenario", "bay_bridge"],
            lambda inv: check_verify([("scenario suite (bay_bridge)", BAY_SWEEP_ROWS)], inv),
        ),
        (
            ["verify", "--scenario", "nyc"],
            lambda inv: check_verify([("scenario suite (nyc)", NYC_SWEEP_ROWS)], inv),
        ),
    ]


WORKLOADS = {"cli-oneshot": cli_oneshot, "sweep-nyc": sweep_nyc, "verify": verify}


@dataclass
class PassResult:
    wall_s: float
    units: int
    invocations: list[Invocation]
    problems: list[str]
    failed: list[bool]  # per command of the pass


def run_pass(ops: list[Op], env: dict[str, str]) -> PassResult:
    start = time.perf_counter()
    invocations, problems, units, failed = [], [], 0, []
    for args, check in ops:
        inv = spawn(["-m", "tollgap.cli", *args], env)
        invocations.append(inv)
        try:
            got, found = check(inv)
        except (ValueError, KeyError) as exc:  # unparsable output
            got, found = 0, [f"{args[0]}: malformed output: {exc!r}"]
        units += got
        problems += found
        failed.append(bool(found) or inv.returncode != 0)
    return PassResult(time.perf_counter() - start, units, invocations, problems, failed)


def import_once(env: dict[str, str]) -> float:
    """Wall time of one fresh `import tollgap.cli` process."""
    inv = spawn(["-c", "import tollgap.cli"], env)
    if inv.returncode != 0:
        raise RuntimeError(f"import tollgap.cli failed: {inv.output.strip()}")
    return inv.wall_s


def end_to_end(workload: str, inputs: Inputs, size: Size, seconds: float) -> dict:
    env = child_env()
    import_once(env)  # warm-up: writes the bytecode cache, as an installed package has
    ops = WORKLOADS[workload](inputs, size)
    setup: list[float] = []
    passes: list[PassResult] = []
    start = time.perf_counter()
    slowest = 0.0
    # Set-up samples are taken between passes, so that they see the same
    # stretch of machine time as the passes do.
    while not passes or time.perf_counter() - start + slowest <= seconds:
        t0 = time.perf_counter()
        setup.append(import_once(env))
        passes.append(run_pass(ops, env))
        slowest = max(slowest, time.perf_counter() - t0)
    while len(setup) < SETUP_SAMPLES:
        setup.append(import_once(env))
    walls = [inv.wall_s for p in passes for inv in p.invocations]
    attempted = len(ops)
    failed = sum(any(p.failed[k] for p in passes) for k in range(attempted))
    n = len(passes)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "latency_p50_s": metric(statistics.median(walls), "s", len(walls)),
        "ops_per_s": metric(statistics.median(p.units / p.wall_s for p in passes), "1/s", n),
        "cpu_s": metric(statistics.median(sum(i.cpu_s for i in p.invocations) for p in passes), "s", n),
        "peak_rss_mb": metric(
            statistics.median(max(i.maxrss_mb for i in p.invocations) for p in passes), "MB", n
        ),
    }
    return {
        "metrics": metrics,
        "error_rate": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "invocations": len(walls),
        "failed_invocations": sum(sum(p.failed) for p in passes),
        "problems": sorted({problem for p in passes for problem in p.problems}),
        "samples": {
            "setup_s": setup,
            "passes": [
                {
                    "wall_s": p.wall_s,
                    "units": p.units,
                    "invocations": [
                        {k: getattr(i, k) for k in ("args", "wall_s", "cpu_s", "maxrss_mb", "returncode")}
                        for i in p.invocations
                    ],
                }
                for p in passes
            ],
        },
    }


# --------------------------------------------------------------------------


def read_text(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return ""


def machine_facts() -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in read_text("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        **versions,
    }


def print_report(workload: str, record: dict) -> None:
    machine = record["machine"]
    print(
        f"# {workload} seed={record['seed']} trace={record['trace']} "
        f"nproc={machine['nproc']} cpu={machine['cpu_model']!r} python={machine['python']} "
        f"numpy={machine['numpy']} scipy={machine['scipy']}"
    )
    print(f"# loadavg start {machine['loadavg_start']} end {machine['loadavg_end']}")
    for name, m in record["metrics"].items():
        print(f"{name:45s} {m['value']:>14.6g} {m['unit']:<6s} (n={m['samples']})")
    for name, value in record.get("self_s", {}).items():
        print(f"{'self time ' + name:45s} {value:>14.6g} s")
    print(f"{'error_rate':45s} {record['error_rate']:>14.6g} ratio  ({record['failed']}/{record['attempted']})")
    if "invocations" in record:
        print(f"{'failed invocations':45s} {record['failed_invocations']:>14d} count  (of {record['invocations']})")
    for problem in record["problems"]:
        print(f"problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (SRC / "tollgap" / "cli.py").is_file():
        print(f"error: no tollgap sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    size = TINY if args.tiny else FULL
    inputs = Inputs.from_seed(args.seed)
    loadavg_start = read_text("/proc/loadavg").strip()
    if args.trace:
        import layers  # imports tollgap; kept out of the end-to-end run

        result = layers.traced(inputs, size, args.seconds, child_env())
    else:
        result = end_to_end(args.workload, inputs, size, args.seconds)
    machine = machine_facts()
    machine["loadavg_start"] = loadavg_start
    machine["loadavg_end"] = read_text("/proc/loadavg").strip()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "tiny" if args.tiny else "full",
        "inputs": vars(inputs),
        "machine": machine,
        **result,
    }
    tiny = "-tiny" if args.tiny else ""
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{tiny}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print_report(args.workload, record)
    print(f"# record written to {path.relative_to(ROOT)}")
    summary = {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in record["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
