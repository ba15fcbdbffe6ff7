"""Checks on the package source that need no third-party linter."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "conceptkit"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os\nimport a.b\n"
              "from x import y, z as w\n\ndef f() -> w:\n    return a.b\n")
    assert unused_imports(source) == ["os", "y"]


# __init__.py imports names only to re-export them
@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"],
    ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def scopes_of(source: str, match) -> list[str]:
    """The dotted name of the function around each node that `match`
    accepts, in source order; "" stands for module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if match(child):
                found.append(scope)
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def splitlines_users(source: str) -> list[str]:
    """The dotted names of the functions that read a `.splitlines`
    attribute, once per reading, in source order; "" stands for module
    level."""
    return scopes_of(source, lambda node: isinstance(node, ast.Attribute)
                     and node.attr == "splitlines")


def test_splitlines_users_are_found():
    source = ("x = 'a'.splitlines()\nclass C:\n    def f(self, t):\n"
              "        return list(map(str.splitlines, t))\n")
    assert splitlines_users(source) == ["", "C.f"]


def test_only_write_standoff_splits_at_every_line_boundary():
    """Every reader ends a line only where formats.split_lines does;
    write_standoff flattens a mention's text at every str.splitlines
    boundary on purpose, so that no record can break."""
    users = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in splitlines_users(path.read_text(encoding="utf-8"))]
    assert users == ["formats.write_standoff"]


def line_error_raisers(source: str) -> list[str]:
    """The dotted names of the functions that raise a ParseError with a
    `line` argument, once per raise statement."""
    return scopes_of(source, lambda node: isinstance(node, ast.Raise)
                     and isinstance(node.exc, ast.Call)
                     and getattr(node.exc.func, "id", None) == "ParseError"
                     and any(k.arg == "line" for k in node.exc.keywords))


def test_line_error_raisers_are_found():
    source = ("def f(n):\n    if n:\n        raise ParseError('a', line=n)\n"
              "    raise ParseError('b')\n"
              "def g(n):\n    raise ParseError('c', line=n, source='s')\n")
    assert line_error_raisers(source) == ["f", "g"]


def test_each_reader_adds_file_and_line_in_one_place():
    """A reader's own checks raise plain errors; one handler per reader
    turns them into the ParseError that names the file and line."""
    raisers = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
               for name in line_error_raisers(path.read_text(encoding="utf-8"))]
    assert len(raisers) == len(set(raisers)), raisers


def test_import_loads_no_dataclass_or_typing_machinery():
    """Every command pays for what `import conceptkit.cli` loads.
    `dataclasses` alone loads `inspect`, `ast` and `dis`, and `logging`
    loads `traceback` and `threading`; under -S no site-packages `.pth`
    file preloads any of these first."""
    code = ("import sys, conceptkit.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'typing', 'logging',"
            " 'traceback', 'threading'} & set(sys.modules)))")
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), check=True)
    assert result.stdout == "[]\n"
