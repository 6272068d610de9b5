"""Every name a module of the package imports is used in that module, every
private top-level function, class or assigned name is referenced in the
package, and no module imports sympy: the engine computes its exact gcds on
its own term lists.

``__init__.py`` is exempt from the first check: it imports names to
re-export them.  A name counts as used when it appears as a name anywhere
in the module, string annotations included; a private name of another
module also counts as used as an attribute (``stdbasis._std``).
"""

import ast
from pathlib import Path

import pytest

import folinv

PACKAGE = sorted(Path(folinv.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def _names(tree) -> set:
    """The names a module reads, string annotations included."""
    trees = [tree]
    for ann in _annotations(tree):
        for const in ast.walk(ann) if ann is not None else ():
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                trees.append(ast.parse(const.value, mode="eval"))
    return {
        n.id
        for t in trees
        for n in ast.walk(t)
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
    }


def _private_definitions(tree) -> list:
    """The private names a module defines at top level: functions, classes
    and assignments, dunder names such as ``__all__`` left out."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


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
    used = _names(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unreferenced_private(sources: dict) -> list:
    """(module, name) of each private top-level function, class or assigned
    name that no module of ``sources``, a dict from module name to source,
    refers to."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, name) for name in _private_definitions(tree)]
        used |= _names(tree)
        used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return sorted(d for d in defined if d[1] not in used)


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


def test_the_check_sees_an_unreferenced_private_name():
    sources = {
        "a": "def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\ndef f(): return _used()\n"
        "_DEAD = 1\n",
        "b": "import c\ndef g(x: '_Hinted'):\n    return c._remote(x)\n",
        "c": "def _remote(x): pass\nclass _Hinted: pass\n",
    }
    assert unreferenced_private(sources) == [("a", "_DEAD"), ("a", "_Gone"), ("a", "_dead")]


def test_no_unreferenced_private_names():
    assert unreferenced_private({p.stem: p.read_text() for p in PACKAGE}) == []


def imported_modules(source: str) -> set:
    """The top-level packages a source imports, at any depth of its tree;
    relative imports left out."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.split(".")[0])
    return out


def test_the_check_sees_an_import_of_sympy():
    source = (
        "import os.path\n"
        "from . import ring\n"
        "def f():\n"
        "    from sympy.polys import gcd\n"
        "    return gcd\n"
    )
    assert imported_modules(source) == {"os", "sympy"}
    assert imported_modules("import sympy as sp\n") == {"sympy"}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_imports_sympy(path):
    assert "sympy" not in imported_modules(path.read_text())
