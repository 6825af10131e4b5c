"""The package imports nothing at run time beyond the standard library and numpy."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "linklabel"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "linklabel"}


def imported_modules(tree):
    """(line, top-level name) of every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_the_standard_library_and_numpy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 7
    foreign = [f"{path.name}:{line}: {name}"
               for path in modules
               for line, name in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
               if name not in ALLOWED]
    assert foreign == []


def test_a_foreign_import_is_caught():
    tree = ast.parse("import os\nimport scipy.sparse\nfrom numpy import zeros\n"
                     "from .graph import SignedGraph\nfrom pandas import DataFrame\n")
    assert [name for _, name in imported_modules(tree) if name not in ALLOWED] == [
        "scipy", "pandas"]
