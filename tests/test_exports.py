"""The package exports only what the library, its demos or its benchmark
use: a name that only tests call belongs in the tests."""

import ast
import types
from pathlib import Path

import pconfig

ROOT = Path(__file__).resolve().parent.parent


def _used_names() -> set:
    """Every name read, or attribute taken, in src/pconfig (outside
    ``__init__.py``), demos/ and perfbench/; definitions and imports do
    not count."""
    files = [p for p in (ROOT / "src" / "pconfig").glob("*.py")
             if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_is_used_outside_the_tests():
    exports = {name for name, value in vars(pconfig).items()
               if not name.startswith("_")
               and not isinstance(value, types.ModuleType)}
    assert sorted(exports - _used_names()) == []
