"""Every module of the package and of the test suite uses each name it imports.

No linter ships with the toolchain, so this stdlib ``ast`` pass stands in
for one.  ``__init__.py`` is exempt: its imports are the public API, and
its ``__all__`` lists exactly those names and ``__version__``.  The test
oracles import nothing from the package, so they stay independent of it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "betaenc"
TESTS = Path(__file__).resolve().parent
ORACLES = TESTS / "oracles.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation such as -> "WordDistribution" reads names too
    notes = [node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    notes += [node.annotation for node in ast.walk(tree)
              if isinstance(node, (ast.arg, ast.AnnAssign))]
    for note in notes:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used.update(node.id for node in ast.walk(ast.parse(note.value, mode="eval"))
                        if isinstance(node, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


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


def test_all_lists_exactly_what_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    (exported,) = [ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"]
    assert len(exported) == len(set(exported))
    assert set(exported) - {"__version__"} == imported


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
