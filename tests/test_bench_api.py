"""The benchmark's calls into tollgap stay valid.

``bench/layers.py`` and ``bench/run.py`` drive the program through its
modules and its command line.  ``python -m pytest bench`` runs them, but the
project's own test run does not collect ``bench/``, so a renamed function
or a dropped parameter would break only the benchmark.  These tests read
both files (and ``bench/common.py``'s suite table) with ``ast``; nothing
under ``bench/`` is imported or run.  Every ``tollgap`` module attribute the
files use must exist, every call of one must bind to its signature, and
every command line they run must parse.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from tollgap import cli, verify

BENCH = Path(__file__).resolve().parents[1] / "bench"
SOURCES = ("layers.py", "run.py")
COMMANDS = {"analyze", "sweep", "verify", "crossover"}


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _imported(tree: ast.Module) -> dict[str, object]:
    """Each local name bound by a ``from tollgap... import`` to its module or function."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tollgap":
            module = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    target = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    target = getattr(module, alias.name)
                names[alias.asname or alias.name] = target
    return names


def uses(tree: ast.Module, imported: dict[str, object]) -> list[tuple[str, ast.AST, ast.Call | None]]:
    """``(what, node, call)`` for each ``module.attr`` read and each call of an imported name.

    ``call`` is the call node where the use is called, else None.
    """
    called = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in imported:
            found.append((f"{node.value.id}.{node.attr}", node, called.get(id(node))))
        elif isinstance(node, ast.Name) and node.id in imported and id(node) in called:
            found.append((node.id, node, called[id(node)]))
    return found


@pytest.mark.parametrize("source", SOURCES)
def test_every_tollgap_attribute_exists_and_every_call_binds(source):
    tree = _tree(source)
    imported = _imported(tree)
    for what, node, call in uses(tree, imported):
        where = f"bench/{source}:{node.lineno}"
        head, _, attr = what.partition(".")
        target = imported[head]
        if attr:
            assert hasattr(target, attr), f"{where}: tollgap has no {what}"
            target = getattr(target, attr)
        if call is None or any(isinstance(arg, ast.Starred) for arg in call.args):
            continue  # not called, or an unpacked argument count
        keywords = {kw.arg: None for kw in call.keywords if kw.arg is not None}
        try:
            inspect.signature(target).bind(*call.args, **keywords)
        except TypeError as exc:
            pytest.fail(f"{where}: {what}(...) does not bind to its signature: {exc}")


def test_the_scan_sees_the_benchmark_calls():
    # Guards the scan itself.
    tree = _tree("layers.py")
    seen = {what for what, _, _ in uses(tree, _imported(tree))}
    assert {
        "oracle.simulate_static_bottleneck",
        "sweep.compute_rows",
        "search.grid_refine_max",
        "mfd.DEFAULT_GRID_POINTS",
        "builtin_scenario",
    } <= seen


def test_the_suites_bench_runs_by_name_exist():
    # layers.py runs ``verify.<name>_suite(seed, cases)`` for each row of RANDOM_SUITES.
    table = next(
        node.value
        for node in _tree("common.py").body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "RANDOM_SUITES" for t in node.targets)
    )
    names = [row.elts[0].value for row in table.elts]
    assert len(names) == 4
    for name in names:
        inspect.signature(getattr(verify, f"{name}_suite")).bind(0, 1)


def command_lines() -> list[list[str]]:
    """Each command-line list literal of ``bench/run.py``, with ``"1"`` for every computed argument."""
    found = []
    for node in ast.walk(_tree("run.py")):
        if isinstance(node, ast.List) and node.elts:
            first = node.elts[0]
            if isinstance(first, ast.Constant) and first.value in COMMANDS:
                found.append(
                    [elt.value if isinstance(elt, ast.Constant) else "1" for elt in node.elts]
                )
    return found


def test_every_benchmark_command_line_parses():
    lines = command_lines()
    assert {line[0] for line in lines} == COMMANDS
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(line)  # a usage error exits 1
