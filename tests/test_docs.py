"""The docs stay in step with the code they describe.

The "Fixed numeric settings" table of ``docs/formulas.md`` has one row for
each module-level numeric constant of ``src/tollgap``, and no other row.
Each table row of a section headed ``(`tollgap.<module>`)`` names only
attributes of that module, so a folded or renamed function leaves no row
behind.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tollgap"


def _is_number(value) -> bool:
    if isinstance(value, tuple):
        return bool(value) and all(map(_is_number, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def module_constants() -> set[str]:
    """``module.NAME`` for each module-level upper-case name bound to a number or a tuple of numbers."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            try:
                value = ast.literal_eval(node.value)
            except ValueError:  # not a literal: a call, a name, a comprehension
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id.lstrip("_").isupper() and _is_number(value):
                    found.add(f"{path.stem}.{target.id}")
    return found


def _formulas() -> str:
    return (ROOT / "docs" / "formulas.md").read_text(encoding="utf-8")


def documented_constants() -> list[str]:
    """The first column of the table under "## Fixed numeric settings", row by row."""
    section = _formulas().split("## Fixed numeric settings\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([\w.]+)` \|", section, flags=re.MULTILINE)


def test_constants_are_found():
    # Guards the scan itself: private, tuple and underscored-literal constants count.
    assert {"mfd._SERIES_CUTOFF", "cli.CROSSOVER_WINDOW", "oracle.SEARCH_POINTS"} <= module_constants()


def test_every_numeric_constant_has_one_row():
    rows = documented_constants()
    assert len(rows) == len(set(rows)), "a constant has two rows"
    constants = module_constants()
    assert sorted(constants - set(rows)) == [], "constants with no row"
    assert sorted(set(rows) - constants) == [], "rows naming no constant"


def documented_functions() -> dict[str, list[list[str]]]:
    """The names in each table row's first cell, by the module of its ``(`tollgap.<module>`)`` section."""
    rows: dict[str, list[list[str]]] = {}
    for section in _formulas().split("\n## ")[1:]:
        heading, _, body = section.partition("\n")
        module = re.search(r"\(`tollgap\.(\w+)`\)", heading)
        if module is None:
            continue
        cells = re.findall(r"^\| ([^|]+) \|", body, flags=re.MULTILINE)
        # Each table opens with a header row and a `---` row.
        names = [re.findall(r"`(\w+)`", cell) for cell in cells if cell not in ("function", "---")]
        rows[module[1]] = names
    return rows


def test_every_function_row_names_attributes_of_its_module():
    rows = documented_functions()
    # Guards the scan itself: the four sections with a table, one row each checked.
    assert {name for name, found in rows.items() if found} == {"bottleneck", "mfd", "cli", "oracle"}
    assert ["_trapezoid_cost"] in rows["bottleneck"]
    assert ["static_revenue_optimal", "static_sc_optimal", "static_optima"] in rows["mfd"]
    for name, found in rows.items():
        module = importlib.import_module(f"tollgap.{name}")
        for row in found:
            assert row, f"a {name} row names no function"
            missing = [attr for attr in row if not hasattr(module, attr)]
            assert missing == [], f"tollgap.{name} has no {missing}"
