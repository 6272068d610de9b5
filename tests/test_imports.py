"""Every name a module of the package imports is used in that module.

``__init__.py`` is exempt: it imports names to re-export them.  A name
counts as used when it appears as a name anywhere in the module, string
annotations included.
"""

import ast
from pathlib import Path

import pytest

import folinv

MODULES = sorted(
    p for p in Path(folinv.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                yield arg.annotation
            yield args.vararg and args.vararg.annotation
            yield args.kwarg and args.kwarg.annotation
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    trees = [tree]
    for ann in _annotations(tree):
        for const in ast.walk(ann) if ann is not None else ():
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                trees.append(ast.parse(const.value, mode="eval"))
    used = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = (
        "from math import gcd, lcm\n"
        "import os\n"
        "def f(a: 'Fraction | None') -> int:\n"
        "    return gcd(a, 2)\n"
    )
    assert unused_imports(source) == [(1, "lcm"), (2, "os")]
    assert unused_imports("from fractions import Fraction\nx: 'Fraction'\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
