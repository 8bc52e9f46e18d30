"""The package has one refusal type: every input a function cannot accept
raises ``BadArgument``, and a pair that yields no solution
``InvalidPair``.  ``errors.py`` alone defines exception classes.
"""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pconfig"
RAISED = {"BadArgument", "InvalidPair"}


def _modules() -> dict:
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _base_name(node) -> str:
    """The name a class base ends in: ``Exception`` for both
    ``Exception`` and ``builtins.Exception``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def test_errors_defines_the_three_exceptions():
    classes = {node.name for node in _modules()["errors.py"].body
               if isinstance(node, ast.ClassDef)}
    assert classes == {"PConfigError", *RAISED}


def test_every_raise_is_bad_argument_or_invalid_pair():
    # a re-raise passes: the bare ``raise``, and ``raise errors[0]`` of an
    # exception collected from a worker thread
    other = [
        f"{name}:{node.lineno}: raise {ast.unparse(node.exc)}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and not isinstance(node.exc, ast.Subscript)
        and not (isinstance(node.exc, ast.Call)
                 and isinstance(node.exc.func, ast.Name)
                 and node.exc.func.id in RAISED)
    ]
    assert other == []


def test_no_exception_class_outside_errors():
    modules = _modules()
    exceptions = {name for name, value in vars(builtins).items()
                  if isinstance(value, type)
                  and issubclass(value, BaseException)}
    exceptions |= {node.name for node in modules["errors.py"].body
                   if isinstance(node, ast.ClassDef)}
    defined = [
        f"{name}:{node.lineno}: class {node.name}"
        for name, tree in modules.items() if name != "errors.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(_base_name(base) in exceptions for base in node.bases)
    ]
    assert defined == []
