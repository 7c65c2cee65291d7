"""Package modules import only what they read, only the standard library,
and define nothing that no caller reads.

No linter ships with the project, so these checks stand in for one.

- A deletion easily leaves its imports behind: each name that an import
  binds in a module under ``src/cssgauge/`` or ``tests/`` must be read
  somewhere in that module.  The package re-exports nothing, so this
  holds for ``__init__.py`` too.
- A deletion of a caller easily leaves its callee behind: see
  ``dead_names``.
- A module that reads another module's private name couples to what
  that module may change at will: see ``foreign_private_names``.
- The package has no runtime dependencies: every module imports only
  the standard library (``sys.stdlib_module_names``) and the package
  itself.  numpy and hypothesis are for the tests alone.
- A rank has one body, ``gf2.rank``: see ``echelon_lengths``.
- A slot is set one way, through its setter bound once at import: see
  ``object_setattr_calls``.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cssgauge"
MODULES = sorted(PACKAGE.glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
TRACER = ROOT / "perfbench" / "tracer.py"


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


def dead_names(defining: list[str], reading: list[str], exempt: set[str]) -> list[str]:
    """Functions and classes defined in ``defining`` whose name nothing in ``reading`` reads.

    A name is read when it appears as a loaded name (``f(x)``), as an
    attribute (``obj.f``) or as an imported name (``from m import f``).
    Dunder methods are called implicitly, and the names in ``exempt``
    are taken as read.  The lint matches names, not objects: a dead
    function that shares its name with a live one, such as a method
    named like another class's method, passes.
    """
    read = set(exempt)
    for source in reading:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    found = []
    for source in defining:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")) and name not in read:
                    found.append(f"{name} (line {node.lineno})")
    return found


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def foreign_private_names(source: str, exempt: set[str]) -> list[str]:
    """Private names that ``source`` imports, or reads as an attribute without defining them.

    A module defines a name when it defines a function or class of that
    name, assigns it (``_x = ...``, ``self._x = ...``), takes it as a
    parameter or spells it in a string (``__slots__``).  Like
    ``dead_names``, the lint matches names: an attribute that shares its
    name with one the module defines passes.  The names in ``exempt``
    are taken as public.
    """
    tree = ast.parse(source)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
        elif isinstance(node, ast.arg):
            defined.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            defined.add(node.value)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names = [node.attr] if node.attr not in defined else []
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if _is_private(name) and name not in exempt]
    return sorted(found)


def echelon_lengths(source: str) -> list[str]:
    """Calls ``len(Echelon(...))``: a rank computed outside ``gf2.rank``.

    ``Echelon`` is matched by name, bare or as an attribute (``gf2.Echelon``).
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "len" and len(node.args) == 1
                and isinstance(node.args[0], ast.Call)):
            func = node.args[0].func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Echelon":
                found.append(f"len(Echelon(...)) (line {node.lineno})")
    return found


def object_setattr_calls(source: str) -> list[str]:
    """Calls ``object.__setattr__(...)``: a slot set by name, where the package
    sets each slot through its member descriptor's setter, bound once at import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__setattr__" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "object"):
            found.append(f"object.__setattr__ (line {node.lineno})")
    return found


def boundary_names() -> set[str]:
    """Every part of every ``perfbench/tracer.py`` boundary (``Class.method`` gives both):
    the benchmark wraps them by name, so they are read from outside the package."""
    spec = importlib.util.spec_from_file_location("_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {part for _, attribute, _ in tracer.BOUNDARIES for part in attribute.split(".")}


def test_unused_imports_are_found():
    source = "import os.path\nfrom typing import Optional, Sequence as Seq\nx: Optional[int] = None\n"
    assert unused_imports(source) == ["Seq (line 2)", "os (line 1)"]


def test_foreign_imports_are_found():
    source = ("import os, numpy as np\nfrom . import gf2\nfrom .pauli import PauliOp\n"
              "from cssgauge.gf2 import BitVec\n\n"
              "def f():\n    from scipy.linalg import lu\n")
    assert foreign_imports(source) == ["numpy (line 1)", "scipy (line 7)"]


def test_dead_names_are_found():
    source = ("class A:\n    def __init__(self): pass\n    def used(self): pass\n"
              "    def unused(self): pass\n\n"
              "def helper(): pass\n\ndef spare(): pass\n\ndef wrapped(): pass\n")
    caller = "from m import helper\nA().used()\n"
    assert dead_names([source], [source, caller], {"wrapped"}) == ["spare (line 8)",
                                                                  "unused (line 4)"]


def test_every_definition_is_read():
    package = [path.read_text() for path in MODULES]
    assert dead_names(package, package + [path.read_text() for path in DEMOS],
                      boundary_names()) == []


def test_only_the_tracer_keeps_these_names():
    # The definitions that nothing in src/ or demos/ reads, which survive
    # the lint above only because the benchmark's tracer wraps them: the
    # list of what to delete once the tracer stops naming them.
    package = [path.read_text() for path in MODULES]
    dead = dead_names(package, package + [path.read_text() for path in DEMOS], set())
    assert {entry.split(" ")[0] for entry in dead} == {
        "LinearSolver", "row_space_contains", "column", "in_group", "group_rank",
        "stabilizer_ranks", "full_gauge_lgt", "css_logical_reps"}


def test_foreign_private_names_are_found():
    source = ("from .lattice import _sites, _kept, public\nimport m\n\n"
              "class A:\n    __slots__ = ('_slot',)\n\n"
              "    def __init__(self, _arg):\n        self._own = _arg\n\n"
              "    def f(self, other):\n"
              "        return m._helper(), other._index, self._own, self._slot, self.__class__\n")
    assert foreign_private_names(source, {"_kept"}) == ["_helper (line 11)", "_index (line 11)",
                                                        "_sites (line 1)"]


def test_echelon_lengths_are_found():
    source = ("from . import gf2\nfrom .gf2 import Echelon, rank\n\n"
              "a = len(Echelon(rows, combos=False))\nb = len(gf2.Echelon(rows))\n"
              "span = Echelon(rows)\nc = len(span) + len(rows) + rank(m)\n")
    assert echelon_lengths(source) == ["len(Echelon(...)) (line 4)", "len(Echelon(...)) (line 5)"]


def test_object_setattr_calls_are_found():
    source = ("class A:\n    __slots__ = ('x',)\n\n    def __init__(self, x):\n"
              "        object.__setattr__(self, 'x', x)\n        _set_x(self, x)\n\n"
              "_set_x = A.x.__set__\nsetattr(A, 'y', 1)\nsuper().__setattr__('y', 2)\n")
    assert object_setattr_calls(source) == ["object.__setattr__ (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_sets_no_slot_by_name(path):
    assert object_setattr_calls(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "gf2.py"], ids=lambda p: p.name)
def test_module_ranks_only_through_gf2_rank(path):
    assert echelon_lengths(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_no_private_name_of_another(path):
    assert foreign_private_names(path.read_text(), boundary_names()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text()) == []
