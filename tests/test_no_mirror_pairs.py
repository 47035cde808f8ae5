"""Each solver step is written once, with the direction as a parameter.

Clockwise processing is the mirror image of counterclockwise processing,
so the package passes `ccw` to one function instead of keeping a
hand-written `*_ccw`/`*_cw` copy of each, with no exception.
Properties are values rather than steps, so a run's two ends
(`CyclicSublist.ccw_end`/`cw_end`) are not pairs.
"""

import ast
from pathlib import Path

import diskdom

SOURCES = sorted(Path(diskdom.__file__).parent.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _direction_free(name: str) -> str:
    return "_".join("<dir>" if part in ("ccw", "cw") else part for part in name.split("_"))


def _is_property(node) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)


def mirror_pairs(tree: ast.AST) -> list[tuple[str, str]]:
    """Pairs of functions defined in one scope whose names differ only by ccw/cw."""
    pairs = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.ClassDef, *FUNCTIONS)):
            continue
        by_key: dict[str, set[str]] = {}
        for node in scope.body:
            if isinstance(node, FUNCTIONS) and not _is_property(node):
                by_key.setdefault(_direction_free(node.name), set()).add(node.name)
        pairs += [tuple(sorted(names)) for names in by_key.values() if len(names) > 1]
    return pairs


def test_guard_finds_a_mirror_pair():
    source = """
class A:
    def f_ccw(self): pass
    def f_cw(self): pass
    @property
    def ccw_end(self): pass
    @property
    def cw_end(self): pass
def g_ccw_step(): pass
def g_cw_step(): pass
"""
    assert sorted(mirror_pairs(ast.parse(source))) == [
        ("f_ccw", "f_cw"),
        ("g_ccw_step", "g_cw_step"),
    ]


def test_package_has_no_mirror_pairs():
    assert SOURCES
    found = [
        f"{path.name}: {pair}"
        for path in SOURCES
        for pair in mirror_pairs(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
