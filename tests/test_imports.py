"""Every name a module of the package imports is used in that module, every
private top-level function, class or assigned name is referenced in the
package, no module imports sympy (the engine computes its exact gcds on
its own term lists) or dataclasses (it imports inspect, and each class it
makes compiles generated methods, on every cold start), ``json``,
``importlib.resources`` and ``pathlib`` are imported only inside the
functions that use them, and ``folinv.__all__`` lists exactly the public
names the package binds.  Each layer loads only the layers below it: the
package root re-exports nothing, so ``import folinv.ring`` loads ``ring``
alone; ``folinv.scenarios`` splits its rows on whitespace and loads no
``shlex``.

A name counts as used when it appears as a name anywhere in the module,
string annotations included; a private name of another module also counts
as used as an attribute (``stdbasis._std``).
"""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import folinv

PACKAGE = sorted(Path(folinv.__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
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


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in imported_modules(path.read_text())


LAZY = ("json", "importlib.resources", "pathlib")


def eager_imports(source: str) -> set:
    """The dotted names a source imports when it is loaded, that is outside
    any function body: ``from a import b`` gives ``a`` and ``a.b``; relative
    imports left out."""
    out = set()
    stack = [ast.parse(source)]
    while stack:
        for node in ast.iter_child_nodes(stack.pop()):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Import):
                out |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                out |= {node.module} | {f"{node.module}.{a.name}" for a in node.names}
            stack.append(node)
    return out


def lazy_imported_eagerly(source: str) -> list:
    """The modules of LAZY, or their submodules, that a source imports when
    it is loaded."""
    return sorted(
        name
        for name in eager_imports(source)
        if any(name == lazy or name.startswith(lazy + ".") for lazy in LAZY)
    )


def test_the_check_sees_an_eager_import():
    source = (
        "import json\n"
        "from importlib import resources\n"
        "from . import pathlib\n"
        "if True:\n"
        "    from pathlib import Path\n"
        "class A:\n"
        "    import importlib.resources.abc\n"
        "    def f(self):\n"
        "        import json.decoder\n"
        "def g():\n"
        "    from pathlib import PurePath\n"
    )
    assert lazy_imported_eagerly(source) == [
        "importlib.resources",
        "importlib.resources.abc",
        "json",
        "pathlib",
        "pathlib.Path",
    ]
    assert lazy_imported_eagerly("import importlib\nimport jsonschema\n") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_json_resources_and_pathlib_are_imported_lazily(path):
    assert lazy_imported_eagerly(path.read_text()) == []


def _fresh(code: str) -> tuple:
    """(exit code, stdout, stderr) of ``code`` in a fresh ``python -S`` that
    imports the package from the tree under test."""
    src = str(Path(folinv.__file__).parent.parent)
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    return run.returncode, run.stdout, run.stderr


def test_the_cli_loads_without_dataclasses():
    code = "import sys, folinv.cli; print('dataclasses' in sys.modules)"
    assert _fresh(code) == (0, "False\n", "")


def test_plain_verb_lines_run_without_argparse():
    code = (
        "import sys, folinv.cli as cli\n"
        "print(cli.evaluate(['milnor', 'x^2+y^3']).result, 'argparse' in sys.modules)\n"
        "print(cli.evaluate(['milnor', 'x^2', '--for', 'json']).result, 'argparse' in sys.modules)"
    )
    assert _fresh(code) == (0, "2 False\ninfinite True\n", "")


def test_scenarios_load_without_shlex():
    # scenario expressions are split on whitespace
    code = "import sys, folinv.scenarios; print('shlex' in sys.modules)"
    assert _fresh(code) == (0, "False\n", "")


LAYERS = {
    "folinv": "",
    "folinv.ring": "ring",
    "folinv.stdbasis": "ring stdbasis",
    "folinv.invariants": "invariants ring stdbasis",
    "folinv.scenarios": "scenarios",
    "folinv.cli": "cli invariants ring scenarios stdbasis",
}


@pytest.mark.parametrize("module", LAYERS)
def test_each_layer_loads_only_the_layers_below_it(module):
    code = (
        f"import sys, {module}\n"
        "print(*sorted(m[7:] for m in sys.modules if m.startswith('folinv.')))"
    )
    assert _fresh(code) == (0, LAYERS[module] + "\n", "")


def test_all_lists_exactly_the_public_names():
    exported = folinv.__all__
    assert len(exported) == len(set(exported))
    assert all(hasattr(folinv, name) for name in exported)
    bound = {
        name
        for name, value in vars(folinv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == bound | {"__version__"}
