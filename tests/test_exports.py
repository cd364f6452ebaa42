"""Every exported name resolves, and the package re-exports only names
its modules export (``__all__``, or every public name of a module without
one)."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import vortigen

MODULES = sorted(info.name for info in pkgutil.iter_modules(vortigen.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"vortigen.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_package_reexports_are_exported():
    tree = ast.parse(Path(vortigen.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1
        mod = importlib.import_module(f"vortigen.{node.module}")
        exported = getattr(mod, "__all__", None) or [
            n for n in vars(mod) if not n.startswith("_")]
        for alias in node.names:
            assert alias.name in exported, f"{node.module}.{alias.name}"
            assert getattr(vortigen, alias.asname or alias.name) is \
                getattr(mod, alias.name)
