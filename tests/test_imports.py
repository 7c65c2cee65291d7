"""Package modules import only what they read, and only the standard library.

No linter ships with the project, so these checks stand in for one.

- A deletion easily leaves its imports behind: each name that an import
  binds in a module under ``src/cssgauge/`` must be read somewhere in
  that module.  The package re-exports nothing, so this holds for
  ``__init__.py`` too.
- The package has no runtime dependencies: every module imports only
  the standard library (``sys.stdlib_module_names``) and the package
  itself.  numpy and hypothesis are for the tests alone.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cssgauge"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in read]


def foreign_imports(source: str) -> list[str]:
    """Top-level modules imported from outside the standard library and the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != PACKAGE.name and top not in sys.stdlib_module_names:
                found.append(f"{top} (line {node.lineno})")
    return found


def test_unused_imports_are_found():
    source = "import os.path\nfrom typing import Optional, Sequence as Seq\nx: Optional[int] = None\n"
    assert unused_imports(source) == ["Seq (line 2)", "os (line 1)"]


def test_foreign_imports_are_found():
    source = ("import os, numpy as np\nfrom . import gf2\nfrom .pauli import PauliOp\n"
              "from cssgauge.gf2 import BitVec\n\n"
              "def f():\n    from scipy.linalg import lu\n")
    assert foreign_imports(source) == ["numpy (line 1)", "scipy (line 7)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text()) == []
