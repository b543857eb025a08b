"""Every module of the package and of the test suite uses each name it imports.

No linter ships with the toolchain, so this stdlib ``ast`` pass stands in
for one; it also checks that the package reads every private module-level
name it defines.  ``__init__.py`` is exempt from the import check: its
imports are the public API, and its ``__all__`` lists exactly those names
and ``__version__``.  The test oracles import nothing from the package, so
they stay independent of it.  The exact layer, ``numerics.py``, holds no
float literal, reads no ``float`` and imports no ``math``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "betaenc"
TESTS = Path(__file__).resolve().parent
ORACLES = TESTS / "oracles.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


def names_read(tree: ast.AST) -> set:
    """The names that expressions and quoted annotations in ``tree`` read."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    # a quoted annotation such as -> "WordDistribution" reads names too
    notes = [node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    notes += [node.annotation for node in ast.walk(tree)
              if isinstance(node, (ast.arg, ast.AnnAssign))]
    for note in notes:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used |= names_read(ast.parse(note.value, mode="eval"))
    return used


def unused_imports(source: str) -> list:
    """'name (line n)' for each name an import binds and no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = names_read(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def unread_private_names(sources: dict) -> list:
    """'module.name' for each private module-level name that no source reads.

    ``sources`` maps module names to their text.  A private name starts
    with one underscore and is bound at module level by a def, a class or
    an assignment; an expression, an attribute access or a from-import of
    it in any of the sources reads it.
    """
    read, defined = set(), []
    for module, source in sources.items():
        tree = ast.parse(source)
        read |= names_read(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        read |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_unused_imports():
    source = (
        "import os\n"
        "from math import gcd, lcm as l\n"
        "import numpy as np\n"
        "from typing import List\n"
        "def f(x: 'List') -> 'np.ndarray':\n"
        "    'os is named in a docstring only'\n"
        "    return gcd(x, 2)\n"
    )
    assert unused_imports(source) == ["l (line 2)", "os (line 1)"]


def test_package_reads_every_private_name():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def test_the_check_sees_unread_private_names():
    sources = {
        "a": ("_A, (_B, c) = 1, (2, 3)\n"
              "_C: int = 4\n"
              "__all__ = []\n"
              "def _f(x: '_K'):\n"
              "    '_B is named in a docstring only'\n"
              "    return _A\n"
              "class _K:\n"
              "    _inner = 5\n"),
        "b": ("from .a import _C\n"
              "import a\n"
              "x = a._D\n"
              "_D = _E = 6\n"),
    }
    assert unread_private_names(sources) == ["a._B", "a._f", "b._E"]


def test_all_lists_exactly_what_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    (exported,) = [ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"]
    assert len(exported) == len(set(exported))
    assert set(exported) - {"__version__"} == imported


def float_uses(source: str) -> list:
    """'what (line n)' for each float literal, read of ``float`` and import of ``math``, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, "import math") for alias in node.names
                      if alias.name.split(".")[0] == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.append((node.lineno, "from math"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_exact_layer_uses_no_floats():
    # numerics decides every comparison on integers and Fractions
    assert float_uses((PACKAGE / "numerics.py").read_text(encoding="utf-8")) == []


def test_the_check_sees_float_uses():
    source = (
        "import math, os\n"
        "from math import log2\n"
        "x = 0.5 + 2j + 3\n"
        "y = float('1')\n"
        "'float and 1.5 in a string are fine'\n"
    )
    assert float_uses(source) == [
        "import math (line 1)", "from math (line 2)", "literal 0.5 (line 3)",
        "literal 2j (line 3)", "float (line 4)",
    ]


def package_imports(source: str) -> list:
    """'module (line n)' for each import of betaenc or one of its modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in modules
                  if name.split(".")[0] == "betaenc"]
    return found


def test_oracles_import_nothing_from_the_package():
    assert package_imports(ORACLES.read_text(encoding="utf-8")) == []


def test_the_check_sees_package_imports():
    source = (
        "import betaenc\n"
        "from betaenc.extract import two_source_tv\n"
        "import numpy as np, betaenc.numerics as nx\n"
        "from fractions import Fraction\n"
        "def f():\n"
        "    from betaenc import encoder\n"
    )
    assert package_imports(source) == [
        "betaenc (line 1)", "betaenc.extract (line 2)", "betaenc.numerics (line 3)",
        "betaenc (line 6)",
    ]


def test_importing_the_package_loads_no_worker_pool():
    # run_lochs imports its process pool only when it starts workers
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = "import sys, betaenc; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "False\n"
