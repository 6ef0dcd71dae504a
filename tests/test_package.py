"""The package's export list and its namespace agree, and importing the
CLI loads nothing that only one command uses."""
import inspect
import os
import subprocess
import sys
from pathlib import Path

import figulat


def test_every_exported_name_resolves():
    assert len(figulat.__all__) == len(set(figulat.__all__))
    missing = [name for name in figulat.__all__ if not hasattr(figulat, name)]
    assert missing == []


def test_every_public_class_or_function_is_exported():
    bound = {
        name
        for name, value in vars(figulat).items()
        if not name.startswith("_") and not inspect.ismodule(value) and callable(value)
    }
    assert bound - set(figulat.__all__) == set()


def test_cli_import_loads_no_command_specific_modules():
    """Measured against a bare interpreter, so that modules the
    environment's `site` preloads do not count."""
    src = str(Path(figulat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (
        "import sys; bare = set(sys.modules); import figulat.cli; "
        "print(*sorted(set(sys.modules) - bare))"
    )
    added = set(subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    ).stdout.split())
    assert "figulat.cli" in added
    assert added & {"dataclasses", "inspect", "json", "csv", "figulat.oracles"} == set()
