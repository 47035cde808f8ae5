"""Every function, class and constant in the package is used by the package itself.

The definitions checked are functions, methods, classes, and the names a
module or class body assigns a value to (constants, class attributes,
fields with a default), so a deleted helper cannot leave its constant
behind.  A definition counts as used when some code in `src/diskdom/`
names it (a call, an attribute read, a decorator, a base class, a
`set_defaults` entry of the CLI) or when `__all__` exports it.  Code that
only the tests call belongs beside its test, in a reference module under
`tests/`, so the package keeps one production path per query.  Dunder
names are read by Python itself and are not checked.  Each name a module
imports must be read by that module itself, or exported in its
`__all__`, so deleted code leaves no import behind; `from __future__`
imports are compiler directives and are not checked.
"""

import ast
from pathlib import Path

import diskdom

SOURCES = sorted(Path(diskdom.__file__).parent.glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _assigned(stmt: ast.stmt) -> list[ast.Name]:
    """The names a statement assigns a value to: `a = ...`, `a, b = ...`, `a: T = ...`."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        targets = [stmt.target]
    else:
        return []
    return [
        node
        for target in targets
        for node in ast.walk(target)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    ]


def definitions(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every function, method, class and module- or class-level assignment."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS):
            found.append((node.name, node.lineno))
        if isinstance(node, (ast.Module, ast.ClassDef)):
            found += [(name.id, name.lineno) for stmt in node.body for name in _assigned(stmt)]
    return [(name, line) for name, line in found if not _is_dunder(name)]


def references(tree: ast.AST) -> set[str]:
    """Every name the module reads, as a plain name, an attribute or an `__all__` entry."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names |= {
                elt.value
                for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return names


def imports(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every name an import binds, `from __future__` left out."""
    return [
        (alias.asname or alias.name.split(".")[0], node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]


def unreferenced(trees: dict[str, ast.AST]) -> list[str]:
    """`file:line name` of each definition no module refers to, or import its module never reads."""
    used = set().union(*(references(tree) for tree in trees.values()))
    return [
        f"{name}:{line} {defined}"
        for name, tree in trees.items()
        for defined, line in definitions(tree)
        if defined not in used
    ] + [
        f"{name}:{line} {bound}"
        for name, tree in trees.items()
        for bound, line in imports(tree)
        if bound not in references(tree)
    ]


def test_guard_finds_unreferenced_code():
    source = """
from __future__ import annotations
import os.path
from typing import Optional, Sequence
from .geometry import union_columns as merge
__all__ = ["exported"]
LIMIT, SPARE = 3, 4
STEP: int = 1
def exported(): return LIMIT
def called(x: Optional[int] = None): return os.sep
def orphan(): pass
class Base:
    _MARGIN = 0.5
    _unused = {}
    field: int
    def __init__(self): called()
    def method(self): pass
    def used(self): return self._MARGIN
class Child(Base):
    pass
Child().used()
"""
    found = unreferenced({"m.py": ast.parse(source)})
    assert sorted(entry.split()[1] for entry in found) == [
        "SPARE", "STEP", "Sequence", "_unused", "merge", "method", "orphan"
    ]


def test_package_has_no_unreferenced_code():
    assert SOURCES
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    assert unreferenced(trees) == []
