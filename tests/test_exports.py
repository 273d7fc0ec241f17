"""No export may dangle, and no module may reach into a sibling's internals."""

import ast
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
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


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    # Every name a submodule imports at module level is read there or
    # exported in its `__all__`; the package's own imports are re-exports.
    tree = ast.parse((SOURCE / f"{name}.py").read_text())
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exported = set(getattr(importlib.import_module(f"stratavol.{name}"), "__all__", ()))
    unused = [alias for alias in imported if alias not in read | exported]
    assert unused == []


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
    # read by the tests alone.  Class members are checked by the traced run
    # below.
    trees = {name: ast.parse((SOURCE / f"{name}.py").read_text()) for name in MODULES}
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
    assert unread == []


# Class members the traced run never enters, each with why it stays.
MEMBERS_UNTRACED = {
    "UPoly.__str__": "pytest prints it, through TruncatedSeries.__repr__, when an assert fails",
    "UPoly.__repr__": "pytest prints it when an assert on a UPoly fails",
    "TruncatedSeries.__repr__": "pytest prints it when an assert on a series fails",
    "TruncatedSeries.__eq__": "the tests compare series with it",
}


def _traced_run() -> list[tuple[str, int]]:
    """(file name, first line) of every code object of the package entered.

    Runs every CLI leaf at small sizes, c_series_inverse_route(8), one call
    of each exported paper result, and the two members only the tests read:
    `compose`, the tests' check of `lagrange_invert`, and the paper result
    `HomogeneousVolumePolynomial.evaluate`.
    """
    from stratavol import cli, pnum, ribbon, series, sts, volumes

    leaves = [
        "volumes --gmax 2 --float --format json",
        "pnumbers --weight 4",
        "series --order 4",
        "count ribbon --genus 1 --black-perimeters 2 --white-perimeters 2",
        "count trees --black-perimeters 1,1 --white-perimeters 1,1",
        "count sts --genus 2 --max-squares 4",
        *(f"verify {suite}" for suite in cli.VERIFY_CHECKS if suite != "oracle-sts"),
        "verify oracle-sts --max-squares 3",
        "verify all --max-squares 3",
    ]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    paper_results = {
        "pgvn_polynomial": lambda: pnum.pgvn_polynomial(2, 2),
        "fit_ray_polynomial": lambda: ribbon.fit_ray_polynomial(
            1, 1, 1, ribbon.PerimeterPair((1,), (1,)), 4
        ),
        "zero_profile": lambda: sts.zero_profile(sts.enumerate_sts(2, 3)[0][0]),
        "total_volume": lambda: volumes.total_volume(2),
        "cylinder_partial_sum": lambda: volumes.cylinder_partial_sum((1, 2), 4),
        "asymptotic_prediction": lambda: volumes.asymptotic_prediction((1, 2), 4),
    }
    assert set(paper_results) == PAPER_RESULTS
    q = series.TruncatedSeries.from_dict(6, {1: 1, 2: series.UPoly.u(), 5: 3})
    sys.setprofile(profile)
    try:
        for leaf in leaves:
            assert cli.main(leaf.split(), out=io.StringIO()) == 0, leaf
        volumes.c_series_inverse_route(8)
        results = {name: call() for name, call in paper_results.items()}
        results["pgvn_polynomial"].evaluate((2, 1))
        q.compose(series.lagrange_invert(q))
    finally:
        sys.setprofile(None)
    return sorted(
        (Path(name).name, line) for name, line in entered if Path(name).parent == SOURCE
    )


def test_class_members_run():
    # Every def in a class body of the package is entered by the traced run
    # of the program, unless MEMBERS_UNTRACED keeps it.  The run is made in
    # a fresh process, so that no cache warmed by another test hides a call,
    # and a call is matched by its code object's (file, first line), which
    # for a decorated def is the line of its first decorator.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SOURCE.parent), *sys.path])}
    result = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    entered = {tuple(pair) for pair in json.loads(result.stdout)}
    unentered = [
        f"{definition.name}.{member.name}"
        for name in MODULES
        for definition in ast.parse((SOURCE / f"{name}.py").read_text()).body
        if isinstance(definition, ast.ClassDef)
        for member in definition.body
        if isinstance(member, ast.FunctionDef)
        and (f"{name}.py", min([member.lineno] + [d.lineno for d in member.decorator_list]))
        not in entered
    ]
    assert sorted(set(unentered) - set(MEMBERS_UNTRACED)) == []
    assert sorted(set(MEMBERS_UNTRACED) - set(unentered)) == []


if __name__ == "__main__":
    print(json.dumps(_traced_run()))
