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


def _private_definitions(tree):
    """(name, node) of each module-level `_`-prefixed function, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_no_dead_private_helpers(name):
    # A private helper is used only by its own module, so one that no code
    # there reads outside its own definition is dead code, even if the tests
    # still import it.  A rebinding of the name is not a read.
    tree = ast.parse((SOURCE / f"{name}.py").read_text())
    dead = []
    for helper, definition in _private_definitions(tree):
        own = {id(node) for node in ast.walk(definition)}
        if not any(
            isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and node.id == helper and id(node) not in own
            for node in ast.walk(tree)
        ):
            dead.append(helper)
    assert dead == []


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# Paper results exported from stratavol that no other code path calls.
PAPER_RESULTS = {
    "pgvn_polynomial",
    "fit_ray_polynomial",
    "zero_profile",
    "total_volume",
    "cylinder_partial_sum",
    "asymptotic_prediction",
}

# Public class members that no code path reads, each with why it stays.
MEMBERS_TESTS_READ = {
    "evaluate": "a paper result: the top-degree terms read by criteria 9 and 12",
    "compose": "the tests' independent check of lagrange_invert",
}


def _named(tree, skip=()):
    """Every name a tree reads, by name or by attribute, outside the nodes in skip."""
    skipped = {id(node) for root in skip for node in ast.walk(root)}
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in skipped
    }


def _perfbench_names():
    """Names perfbench reads by attribute, or as "module.attr" strings it resolves."""
    names = set()
    for path in PERFBENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        names |= _named(tree)
        names |= {
            attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.split(".")[0] in MODULES
            for attr in node.value.split(".")[1:]
        }
    return names


def test_no_public_code_only_tests_read():
    # A public function or class that no module of the package names (its
    # own definition, `__all__` and the package's re-exports aside), that
    # perfbench does not read and that is not an exported paper result is
    # read by the tests alone.  So is a public method or property of a
    # class that no module of the package and no perfbench file reads as
    # an attribute, unless MEMBERS_TESTS_READ keeps it.
    trees = {name: ast.parse((SOURCE / f"{name}.py").read_text()) for name in MODULES}
    attributes = {
        node.attr
        for tree in [*trees.values(), *(ast.parse(p.read_text()) for p in PERFBENCH.glob("*.py"))]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    outside = _perfbench_names() | PAPER_RESULTS
    unread = []
    for name, tree in trees.items():
        all_lists = [
            node for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ]
        elsewhere = outside.union(*(_named(t) for other, t in trees.items() if other != name))
        for definition in tree.body:
            if (
                isinstance(definition, (ast.FunctionDef, ast.ClassDef))
                and not definition.name.startswith("_")
                and definition.name not in elsewhere
                and definition.name not in _named(tree, [definition, *all_lists])
            ):
                unread.append(f"{name}.{definition.name}")
        unread += [
            f"{name}.{definition.name}.{member.name}"
            for definition in tree.body
            if isinstance(definition, ast.ClassDef)
            for member in definition.body
            if isinstance(member, ast.FunctionDef)
            and not member.name.startswith("_")
            and member.name not in attributes
            and member.name not in MEMBERS_TESTS_READ
        ]
    assert unread == []
