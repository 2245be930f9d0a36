"""The export lists: every name in a module's ``__all__`` exists, and the
package namespace imports only exported names, so a deleted name left in
either list fails here rather than at a user's import."""

import ast
import importlib
import pkgutil
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
