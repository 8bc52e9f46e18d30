"""No module of the package imports a name it does not use.

``__init__.py`` re-exports by importing, which ``test_exports.py``
checks instead; an import marked ``# noqa: F401`` is kept on purpose.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pconfig"


def _unused_imports(path: Path) -> list:
    """The names that `path` imports, outside ``__future__`` and lines
    marked ``# noqa: F401``, and never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__"
              and not any("# noqa: F401" in line for line
                          in lines[node.lineno - 1:node.end_lineno])):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
    return [name for name in imported if name not in used]


def test_no_unused_import():
    unused = {path.name: names for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py"
              and (names := _unused_imports(path))}
    assert unused == {}
