"""Invariant checks in the package raise typed errors, never bare asserts.

`python -O` strips every `assert` statement, so a check written as one
silently stops checking; the package raises `SolverInvariantError` (or
another typed error) instead.
"""

import ast
from pathlib import Path

import diskdom

SOURCES = sorted(Path(diskdom.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
