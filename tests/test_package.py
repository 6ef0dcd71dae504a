"""The package root exports nothing, and importing a module loads only
the modules it needs."""
import inspect
import os
import subprocess
import sys
from pathlib import Path

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
