"""The docs stay in step with the code they describe.

The "Fixed numeric settings" table of ``docs/formulas.md`` has one row for
each module-level numeric constant of ``src/tollgap``, and no other row.
"""

import ast
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


def documented_constants() -> list[str]:
    """The first column of the table under "## Fixed numeric settings", row by row."""
    text = (ROOT / "docs" / "formulas.md").read_text(encoding="utf-8")
    section = text.split("## Fixed numeric settings\n", 1)[1].split("\n## ", 1)[0]
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
