"""The package root exports nothing, importing a module and running a
command each load only the modules they need (and never `typing`), only
the algebraic route and the CLI reach the closed
forms (and neither computes one of its own), and the oracles reach nothing
of the package but its errors. Every function outside the oracles is run
by a README command, and one function holds the bool-and-integer check."""
import ast
import inspect
import io
import os
import subprocess
import sys
from collections import Counter
from importlib import import_module
from pathlib import Path

import pytest

import figulat
from figulat.cli import main
from figulat.verifier import verify_algebraic


def modules_loaded_by(statement, *flags):
    """The modules that `statement` adds to a bare interpreter started with
    `flags`, so that modules the environment's `site` preloads do not
    count."""
    src = str(Path(figulat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (
        f"import sys; bare = set(sys.modules); {statement}; "
        "print(*sorted(set(sys.modules) - bare))"
    )
    return set(subprocess.run(
        [sys.executable, *flags, "-c", probe], env=env, capture_output=True, text=True,
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
    assert added & {"dataclasses", "inspect", "json", "csv", "figulat.oracles",
                    "figulat.combinatorics", "figulat.facets", "figulat.lattice",
                    "figulat.verifier"} == set()


def modules_run_by(command, *flags):
    """The modules that `figulat <command>` loads, run through
    `figulat.cli.main` in a fresh interpreter started with `flags`; the
    command must exit 0."""
    return modules_loaded_by(
        "import io, figulat.cli; assert figulat.cli.main("
        f"{command.split()!r}, out=io.StringIO(), err=io.StringIO()) == 0", *flags)


BASE = {"cli", "errors"}
SMALL_AUDIT = "audit --m-max 2 --k-max 2 --n-max 2 --p-max 2 --cover-p-max 2 --cover-n-max 2"


# Each command, small, by the package modules it must load and no others.
LOADED = {
    "table --kind stirling --m 0..3": BASE | {"combinatorics"},
    "table --kind facet-counts --p 1..3": BASE | {"combinatorics"},
    "table --kind figurate --k 1..2 --n 1..2": BASE | {"combinatorics"},
    "facets --p 3 --l 1 --with-surjections": BASE | {"facets"},
    "facets --p 3 --l 1 --with-counts 2": BASE | {"facets", "combinatorics"},
    "verify --p 1..3 --n 1..2 --route algebraic": BASE | {"verifier", "combinatorics"},
    "verify --p 1..3 --n 1..2 --route geometric": BASE | {"verifier", "facets", "lattice"},
    "verify --p 1..3 --n 1..2 --route pointwise": BASE | {"verifier", "facets", "lattice"},
    # The audit pairs every layer's closed forms and enumerations with the
    # oracles; it runs no route, so it leaves `verifier` unloaded.
    SMALL_AUDIT: BASE | {"combinatorics", "facets", "lattice", "oracles"},
}


@pytest.mark.parametrize("command", LOADED)
def test_each_command_loads_only_the_modules_it_runs(command):
    loaded = {name.removeprefix("figulat.") for name in modules_run_by(command)
              if name.startswith("figulat.")}
    assert loaded == LOADED[command]


@pytest.mark.parametrize("command", [pytest.param(None, id="import figulat.cli"), *LOADED])
def test_cli_import_and_each_command_load_no_typing(command):
    """`site` may preload `typing` (through a `.pth` file), so this probe
    runs without it."""
    if command is None:
        added = modules_loaded_by("import figulat.cli", "-S")
    else:
        added = modules_run_by(command, "-S")
    assert "figulat.cli" in added
    assert "typing" not in added


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


@pytest.mark.parametrize("module", ["verifier", "cli"])
def test_routes_and_cli_import_nothing_from_math(module):
    """So no route or command computes a second copy of a closed form."""
    from_math = [
        node for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "math"
        or isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == "math" for alias in node.names)
    ]
    assert from_math == []


def test_algebraic_route_reads_one_row_and_one_column_per_cell(record_calls):
    """No scalar closed form is called per term, counted without timing:
    each row form checks through one call of its scalar form per cell."""
    cells = [(p, n) for p in range(1, 31) for n in range(1, 4)]
    reports = []
    called = record_calls(lambda: reports.extend(verify_algebraic(p, n) for p, n in cells))
    assert all(report.ok for report in reports)
    for name in ("facet_counts", "figurates", "facet_count", "figurate"):
        assert called[f"figulat.combinatorics.{name}"] == len(cells)


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


def unused_imports(tree):
    """The names that the imports in `tree` bind and no other line reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_no_module_imports_a_name_it_never_uses():
    """The leftover a deletion leaves behind, in the package or its tests;
    the repo has no linter."""
    unused = {
        (path.parent.name, path.stem, name)
        for path in [*PACKAGE.glob("*.py"), *Path(__file__).parent.glob("*.py")]
        for name in unused_imports(ast.parse(path.read_text()))
    }
    assert unused == set()


# README commands, small: each route in each format, each table, a face
# listing and an audit; then a refusal by each budget.
COMMANDS = [
    f"verify --p 1..3 --n 1..2 --route {route} --format {fmt}"
    for route in ("algebraic", "geometric", "pointwise")
    for fmt in ("plain-table", "csv", "json-lines")
] + [
    "table --kind stirling --m 4",
    "table --kind facet-counts --p 4",
    "table --kind figurate --k 2 --n 1..4",
    "facets --p 3 --l 1 --with-surjections --with-counts 2",
    "audit --m-max 3 --k-max 3 --n-max 3 --p-max 3 --cover-p-max 2 --cover-n-max 2",
]
REFUSALS = ["facets --p 4 --l 1 --max-expressions 1", "verify --p 3 --n 3 --max-points 8"]
# The face's validating constructor is public library API that no command
# builds through: the generators build faces with `tuple.__new__`, since
# what they build is valid by construction.
NOT_RUN_BY_A_COMMAND = {"figulat.facets.OrderedSetPartition.__new__"}


def module_functions(module):
    """The functions `module` defines at its top level, a cached one by
    the function it wraps, and the constructors its classes define, as
    'module.qualname'."""
    found = set()
    for value in vars(module).values():
        value = inspect.unwrap(value)
        if inspect.isclass(value):
            value = getattr(vars(value).get("__new__"), "__func__", None)
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            found.add(f"{module.__name__}.{value.__qualname__}")
    return found


def test_every_function_outside_the_oracles_is_run_by_a_command(record_calls):
    codes = []
    run = record_calls(lambda: codes.extend(
        main(argv.split(), out=io.StringIO(), err=io.StringIO())
        for argv in COMMANDS + REFUSALS))
    assert codes == [0] * len(COMMANDS) + [3] * len(REFUSALS)
    defined = set().union(*(
        module_functions(import_module(f"figulat.{name}"))
        for name in MODULES - {"oracles", "__init__"}
    ))
    assert defined - run.keys() == NOT_RUN_BY_A_COMMAND


def bool_checks(tree, prefix=""):
    """The qualified names of the functions under `tree` with one entry per
    place that tests for a bool: an `isinstance(..., bool)` call, or a
    comparison with `bool` on one side, such as `bool in map(type, ...)`."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += bool_checks(node, prefix + node.name + ".")
            continue
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            kinds = node.args[1:]
            kinds = kinds[0].elts if kinds and isinstance(kinds[0], ast.Tuple) else kinds
            if any(getattr(kind, "id", None) == "bool" for kind in kinds):
                found.append(prefix.rstrip("."))
        elif isinstance(node, ast.Compare) and any(
                getattr(side, "id", None) == "bool" for side in [node.left, *node.comparators]):
            found.append(prefix.rstrip("."))
        found += bool_checks(node, prefix)
    return found


def test_one_function_outside_the_oracles_checks_for_bools():
    """`errors.check_integers` is the package's one argument-type check;
    the oracles keep checks of their own, apart from it."""
    checks = Counter(
        f"{path.stem}.{name}"
        for path in PACKAGE.glob("*.py") if path.stem != "oracles"
        for name in bool_checks(ast.parse(path.read_text()))
    )
    assert checks == {"errors.check_integers": 1}
