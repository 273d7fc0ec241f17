"""No export may dangle, and no module may reach into a sibling's internals."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import stratavol

MODULES = sorted(info.name for info in pkgutil.iter_modules(stratavol.__path__))
SOURCE = Path(stratavol.__file__).parent


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


def _is_package_import(node):
    return node.level == 1 or (node.module or "").split(".")[0] == "stratavol"


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_no_sibling_internals(name):
    # The two routes of each cross-check must not share internals, so no
    # module imports a `_`-prefixed name from a sibling or reads sibling._name.
    tree = ast.parse((SOURCE / f"{name}.py").read_text())
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and _is_package_import(node)
    ]
    siblings = {
        alias.asname or alias.name
        for node in imports
        if node.module in (None, "stratavol")
        for alias in node.names
    }
    siblings |= {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.startswith("stratavol.") and alias.asname
    }
    private = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name.startswith("_")
    ]
    private += [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in siblings
        and node.attr.startswith("_")
    ]
    assert private == []
