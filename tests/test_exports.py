"""No export may dangle: every listed or re-exported name must exist."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import stratavol

MODULES = sorted(info.name for info in pkgutil.iter_modules(stratavol.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"stratavol.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(stratavol.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module_name, attr in imported:
        module = importlib.import_module(f"stratavol.{module_name}")
        assert hasattr(module, attr), f"{module_name}.{attr}"
        assert getattr(stratavol, attr) is getattr(module, attr)
