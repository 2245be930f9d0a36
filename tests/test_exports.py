"""The export lists: every name in a module's ``__all__`` exists, and the
package namespace imports only exported names, so a deleted name left in
either list fails here rather than at a user's import."""

import ast
import builtins
import importlib
import pkgutil
import symtable
from pathlib import Path

import pytest

import toelanczos

MODULES = sorted(info.name for info in pkgutil.iter_modules(toelanczos.__path__))
PACKAGE_IMPORTS = [
    (node.module, alias.name)
    for node in ast.parse(Path(toelanczos.__file__).read_text()).body
    if isinstance(node, ast.ImportFrom) and node.level == 1
    for alias in node.names
]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"toelanczos.{module}")
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []


def test_package_imports_only_exported_names():
    assert PACKAGE_IMPORTS
    unexported = [f"{module}.{name}" for module, name in PACKAGE_IMPORTS
                  if name not in importlib.import_module(f"toelanczos.{module}").__all__]
    assert unexported == []


SOURCES = sorted((Path(toelanczos.__file__).parent).glob("*.py"))


def undefined_globals(path: Path) -> list[str]:
    """``"<file>: <scope> reads undefined <name>"`` for each global read nothing defines.

    A name a function (or class body) reads as a global must be bound at
    module level, by an assignment, import, ``def`` or ``class``, or be a
    builtin; anything else raises ``NameError`` only when that line runs.
    No linter is at hand, so the standard library's ``symtable`` checks it.
    """
    top = symtable.symtable(path.read_text(), str(path), "exec")
    defined = {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
    defined |= set(dir(builtins))

    def reads(table):
        for child in table.get_children():
            for sym in child.get_symbols():
                if sym.is_global() and sym.is_referenced() and sym.get_name() not in defined:
                    yield f"{path.name}: {child.get_name()} reads undefined {sym.get_name()}"
            yield from reads(child)

    return sorted(set(reads(top)))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_functions_read_only_defined_globals(path):
    assert undefined_globals(path) == []


def test_undefined_global_is_flagged(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os\n\n\nclass C:\n    def f(self):\n"
                    "        return os.sep, len(C.__name__), ShapeError\n")
    assert undefined_globals(path) == ["m.py: f reads undefined ShapeError"]


def scipy_imports(path: Path) -> list[str]:
    """``"<file>:<line> imports <module>"`` for each import of scipy or a scipy submodule."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{path.name}:{node.lineno} imports {m}" for m in modules
                  if m.split(".")[0] == "scipy"]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_package_imports_no_scipy(path):
    # numpy is the one runtime dependency; scipy is the tests' oracle only
    assert scipy_imports(path) == []


def test_scipy_import_is_flagged(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import numpy as np, scipy.linalg\n\n\ndef f():\n"
                    "    from scipy.integrate import solve_ivp\n    from .scipy import x\n")
    assert scipy_imports(path) == ["m.py:1 imports scipy.linalg",
                                   "m.py:5 imports scipy.integrate"]
