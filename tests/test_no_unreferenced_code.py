"""Every function and class in the package is used by the package itself.

A definition counts as used when some code in `src/diskdom/` names it
(a call, an attribute read, a decorator, a base class, a `set_defaults`
entry of the CLI) or when `__all__` exports it.  Code that only the tests
call belongs beside its test, in a reference module under `tests/`, so
the package keeps one production path per query.  Dunder methods are
called by Python itself and are not checked.
"""

import ast
from pathlib import Path

import diskdom

SOURCES = sorted(Path(diskdom.__file__).parent.glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
ALLOWED = {
    # the documented independent twin of `verify`: whole-row masks instead
    # of the blocked predicate, kept so the two can be compared
    "verify_by_masks",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every function, method and class defined in the module."""
    return [
        (node.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, DEFINITIONS) and not _is_dunder(node.name)
    ]


def references(tree: ast.AST) -> set[str]:
    """Every name the module reads, as a plain name, an attribute or an `__all__` entry."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
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


def unreferenced(trees: dict[str, ast.AST]) -> list[str]:
    """`file:line name` of each definition no module of the package refers to."""
    used = set().union(*(references(tree) for tree in trees.values()))
    return [
        f"{name}:{line} {defined}"
        for name, tree in trees.items()
        for defined, line in definitions(tree)
        if defined not in used
    ]


def test_guard_finds_unreferenced_code():
    source = """
__all__ = ["exported"]
def exported(): pass
def called(): pass
def orphan(): pass
class Base:
    def __init__(self): called()
    def method(self): pass
    def used(self): pass
class Child(Base):
    pass
Child().used()
"""
    found = unreferenced({"m.py": ast.parse(source)})
    assert [entry.split()[1] for entry in found] == ["orphan", "method"]


def test_package_has_no_unreferenced_code():
    assert SOURCES
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    found = [entry for entry in unreferenced(trees) if entry.split()[1] not in ALLOWED]
    assert found == []
