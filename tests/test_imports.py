"""Every top-level import of a fintstab module is used in that module.

The package's `__init__.py` imports names only to re-export them, so it is
exempt.  A name counts as used when the module's code reads it (a Name node,
the base of an attribute access included) or names it in a quoted
annotation; a string elsewhere, such as a docstring, does not count.
"""
import ast
import pathlib

import pytest

import fintstab

SRC = pathlib.Path(fintstab.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotations(node) -> list:
    """The annotations a node holds itself."""
    if isinstance(node, ast.arg):
        anns = [node.annotation]
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        anns = [node.returns]
    elif isinstance(node, ast.AnnAssign):
        anns = [node.annotation]
    else:
        return []
    return [a for a in anns if a is not None]


def unused_imports(source: str) -> list:
    """Names that a module's top-level import statements bind and nothing reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in _annotations(node):   # quoted ones, such as "HistoryTrajectory"
            for c in ast.walk(ann):
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                                if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    src = ("from __future__ import annotations\nimport math\nimport os.path\n"
           "from os import path as p, sep\nfrom typing import Optional\n"
           "def f(x: 'Optional[p]') -> None:\n    'sep'\n    return math.pi\n")
    assert unused_imports(src) == ["os (line 3)", "sep (line 4)"]
