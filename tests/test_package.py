"""The package root exports nothing, importing a module loads only the
modules it needs, only the algebraic route and the CLI reach the closed
forms, and the oracles reach nothing of the package but its errors."""
import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import figulat


def modules_loaded_by(statement):
    """The modules that `statement` adds to a bare interpreter, so that
    modules the environment's `site` preloads do not count."""
    src = str(Path(figulat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (
        f"import sys; bare = set(sys.modules); {statement}; "
        "print(*sorted(set(sys.modules) - bare))"
    )
    return set(subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    ).stdout.split())


def test_package_root_binds_no_public_function_or_class():
    assert not hasattr(figulat, "__all__")
    bound = [
        name
        for name, value in vars(figulat).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    assert bound == []


def test_combinatorics_import_loads_no_face_or_route_modules():
    added = modules_loaded_by("import figulat.combinatorics")
    assert "figulat.combinatorics" in added
    assert added & {"figulat.facets", "figulat.lattice", "figulat.verifier"} == set()


def test_cli_import_loads_no_command_specific_modules():
    added = modules_loaded_by("import figulat.cli")
    assert "figulat.cli" in added
    assert added & {"dataclasses", "inspect", "json", "csv", "figulat.oracles"} == set()


@pytest.mark.parametrize("module", ["figulat.lattice", "figulat.oracles"])
def test_enumeration_and_oracle_imports_load_no_closed_form(module):
    added = modules_loaded_by(f"import {module}")
    assert module in added
    assert "figulat.combinatorics" not in added


PACKAGE = Path(figulat.__file__).resolve().parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def package_imports(path):
    """The package modules, by name, that the source at `path` imports.
    Read statically, so an import inside a function or under
    `TYPE_CHECKING` counts too."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["figulat" if node.level else "", node.module]))
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        imported.update(name.split(".")[1] for name in names if name.startswith("figulat."))
    return imported & MODULES


def importers_of(module):
    return {path.stem for path in PACKAGE.glob("*.py") if module in package_imports(path)}


def test_only_the_algebraic_route_and_the_cli_import_closed_forms():
    """Besides `combinatorics` itself, only `verifier` and `cli` import
    it."""
    assert importers_of("combinatorics") == {"verifier", "cli"}


def test_oracles_import_only_errors_and_only_the_cli_imports_them():
    assert package_imports(PACKAGE / "oracles.py") == {"errors"}
    assert importers_of("oracles") == {"cli"}


def test_oracle_import_loads_only_errors():
    added = modules_loaded_by("import figulat.oracles")
    assert {name for name in added if name.split(".")[0] == "figulat"} == {
        "figulat", "figulat.errors", "figulat.oracles"}


# Recursion the guard below allows: `extend` builds set partitions of at
# most `oracles.MAX_PARTITION_SIZE` = 10 elements, so it nests 10 deep.
BOUNDED_RECURSION = {("oracles", "oracle_set_partitions.extend")}


def self_calls(tree, prefix=""):
    """The qualified names of the functions under `tree` that call
    themselves by name, directly or from a function nested in them."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + node.name
            if any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                   and call.func.id == node.name for call in ast.walk(node)):
                found.add(name)
            found |= self_calls(node, name + ".")
        elif isinstance(node, ast.ClassDef):
            found |= self_calls(node, prefix + node.name + ".")
        else:
            found |= self_calls(node, prefix)
    return found


def test_no_function_calls_itself():
    """Exact arithmetic at any size cannot reach the recursion limit."""
    recursive = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        for name in self_calls(ast.parse(path.read_text()))
    }
    assert recursive == BOUNDED_RECURSION
