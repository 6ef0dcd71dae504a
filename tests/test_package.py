"""The package's export list and its namespace agree."""
import inspect

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
