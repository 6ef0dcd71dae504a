"""The package root exports nothing, and importing a module or running a
command loads only the modules it needs, each checked by one probe: a
fresh `python -S` interpreter, so that nothing `site` preloads can hide a
load (no probe may load `typing`, `json`, `csv`, `dataclasses` or
`inspect`). Only the algebraic route and the CLI reach the closed forms
(and neither computes one of its own), and the oracles reach nothing of
the package but its errors. Every function outside the oracles is run by
a README command, no class writes a constructor of its own, one function
holds the bool-and-integer check, and the console script resolves to the
CLI's `main`."""
import ast
import inspect
import io
import os
import subprocess
import sys
import tomllib
from collections import Counter, namedtuple
from importlib import import_module
from importlib.metadata import EntryPoint
from pathlib import Path
from types import ModuleType

import pytest

import figulat
from figulat.cli import main
from figulat.verifier import verify_algebraic


def modules_loaded_by(statement):
    """The modules that `statement` adds to a bare interpreter started with
    `-S`, so that nothing the environment's `site` preloads can hide a
    load."""
    src = str(Path(figulat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (
        f"import sys; bare = set(sys.modules); {statement}; "
        "print(*sorted(set(sys.modules) - bare))"
    )
    return set(subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True,
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


BASE = {"cli", "errors"}
SMALL_AUDIT = "audit --m-max 2 --k-max 2 --n-max 2 --p-max 2 --cover-p-max 2 --cover-n-max 2"

# Each module's import by the package modules it must load and no others:
# the CLI loads no command's layers, neither the face layers nor the
# oracles reach the closed forms, and the pointwise layer builds no face.
IMPORTED = {
    "import figulat.cli": BASE,
    "import figulat.combinatorics": {"combinatorics", "errors"},
    "import figulat.lattice": {"lattice", "errors"},
    "import figulat.oracles": {"oracles", "errors"},
}
# Each command, small, by the package modules it must load and no others.
LOADED = {
    "table --kind stirling --m 0..3": BASE | {"combinatorics"},
    "table --kind facet-counts --p 1..3": BASE | {"combinatorics"},
    "table --kind figurate --k 1..2 --n 1..2": BASE | {"combinatorics"},
    "facets --p 3 --l 1 --with-surjections": BASE | {"facets"},
    "facets --p 3 --l 1 --with-counts 2": BASE | {"facets", "combinatorics"},
    "verify --p 1..3 --n 1..2 --route algebraic": BASE | {"verifier", "combinatorics"},
    "verify --p 1..3 --n 1..2 --route geometric": BASE | {"verifier", "facets", "lattice"},
    "verify --p 1..3 --n 1..2 --route pointwise": BASE | {"verifier", "lattice"},
    # The audit pairs every layer's closed forms and enumerations with the
    # oracles; it runs no route, so it leaves `verifier` unloaded.
    SMALL_AUDIT: BASE | {"combinatorics", "facets", "lattice", "oracles"},
}
# Modules that no import and no command may load: the annotations need no
# `typing`, and the plain-table commands need no writer of another format.
NEVER_LOADED = {"typing", "json", "csv", "dataclasses", "inspect"}


@pytest.mark.parametrize("probe", [*IMPORTED, *LOADED])
def test_each_import_and_command_loads_only_the_modules_it_runs(probe):
    """A command runs through `figulat.cli.main` and must exit 0."""
    if probe in IMPORTED:
        added, expected = modules_loaded_by(probe), IMPORTED[probe]
    else:
        added = modules_loaded_by(
            "import io, figulat.cli; assert figulat.cli.main("
            f"{probe.split()!r}, out=io.StringIO(), err=io.StringIO()) == 0")
        expected = LOADED[probe]
    assert {name.removeprefix("figulat.") for name in added
            if name.startswith("figulat.")} == expected
    assert added & NEVER_LOADED == set()


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


@pytest.mark.parametrize("module", ["facets", "lattice"])
def test_face_and_point_layers_import_only_errors(module):
    """`errors` owns every budget check, so neither layer needs the other."""
    assert package_imports(PACKAGE / f"{module}.py") == {"errors"}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_reads_the_environment(module):
    """Every setting comes from arguments, so a command's records and exit
    code depend on its argv alone."""
    readers = [
        ast.unparse(node) for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
        and isinstance(node.value, ast.Name) and node.value.id == "os"
        or isinstance(node, ast.ImportFrom) and node.module == "os"
        and any(alias.name in ("environ", "getenv") for alias in node.names)
    ]
    assert readers == []


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


def private_imports(tree):
    """The names with a leading underscore that the imports in `tree` take
    from a package module, relative or by the package's name."""
    return {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "figulat")
        for alias in node.names if alias.name.startswith("_")
    }


def test_no_package_module_imports_a_private_name():
    """A leading underscore keeps a name to its module: what another module
    of the package needs is public, so no wrapper stands in for it."""
    imported = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        for name in private_imports(ast.parse(path.read_text()))
    }
    assert imported == set()


def unread_definitions(defining, reading):
    """The top-level helper functions, classes and assigned names of the
    modules in `defining` (path to tree) that no tree in `reading` reads,
    as (module, name). Test functions, test classes and pytest hooks are
    pytest's to read; a fixture is read by the parameter that names it, and
    a helper by its import in another module."""
    read = set()
    for tree in reading.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
            elif isinstance(node, ast.arg):
                read.add(node.arg)
    unread = set()
    for path, tree in defining.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name)]
            else:
                continue
            unread.update((path.stem, name) for name in names if name not in read
                          and not name.startswith(("test_", "Test", "pytest_", "__")))
    return unread


def test_no_test_module_defines_a_helper_nothing_reads():
    """The helper, constant or class a deleted test leaves behind, under
    `tests/`; what `bench/` reads of them counts as read."""
    tests = Path(__file__).parent
    defining = {path: ast.parse(path.read_text()) for path in tests.glob("*.py")}
    benches = {path: ast.parse(path.read_text()) for path in (tests.parent / "bench").glob("*.py")}
    assert unread_definitions(defining, defining | benches) == set()


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


def module_functions(module):
    """The functions `module` defines at its top level, a cached one by
    the function it wraps, as 'module.qualname'."""
    found = set()
    for value in map(inspect.unwrap, vars(module).values()):
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
    assert defined <= run.keys()


def written_constructors(module):
    """'module.Class.name' for each `__new__` or `_make` in the own
    `vars()` of a class that `module` defines, if its code is in the
    package's source; those that `namedtuple` generates are not."""
    found = set()
    for cls in vars(module).values():
        if inspect.isclass(cls) and cls.__module__ == module.__name__:
            for name in ("__new__", "_make"):
                value = vars(cls).get(name)
                code = getattr(getattr(value, "__func__", value), "__code__", None)
                if code is not None and Path(code.co_filename).resolve().parent == PACKAGE:
                    found.add(f"{module.__name__}.{cls.__qualname__}.{name}")
    return found


def test_no_class_writes_its_own_constructor():
    """A value is built one way, as its plain named tuple: by the
    constructor `namedtuple` generates, or by `tuple.__new__` in C."""
    assert set().union(*(
        written_constructors(import_module(f"figulat.{name}")) for name in MODULES - {"__init__"}
    )) == set()


@pytest.mark.parametrize("source,names", [
    ("class Face(namedtuple('Face', 'blocks')):\n"
     "    def __new__(cls, blocks): return tuple.__new__(cls, (blocks,))", {"__new__"}),
    ("class Face(namedtuple('Face', 'blocks')):\n"
     "    _make = classmethod(lambda cls, iterable: cls(*iterable))", {"_make"}),
    ("Face = namedtuple('Face', 'blocks')", set()),
], ids=["written-new", "written-make", "generated"])
def test_the_constructor_guard_names_exactly_the_written_ones(source, names):
    """A probe module compiled as if from a file of the package."""
    module = ModuleType("figulat.probe")
    module.namedtuple = namedtuple
    exec(compile(source, str(PACKAGE / "probe.py"), "exec"), vars(module))
    assert written_constructors(module) == {f"figulat.probe.Face.{name}" for name in names}


def test_the_console_script_resolves_to_the_cli_main():
    """`[project.scripts]` is read only by an install, so a misspelt
    target would break the `figulat` command and nothing else."""
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as file:
        scripts = tomllib.load(file)["project"]["scripts"]
    assert scripts.keys() == {"figulat"}
    assert EntryPoint("figulat", scripts["figulat"], "console_scripts").load() is main


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
