import pytest


@pytest.fixture
def count_validations(monkeypatch):
    """`count_validations(cls)` wraps the validating constructor
    `cls.__new__` so that every object it builds is appended to the
    returned list; the check still runs. Objects built with
    `tuple.__new__` do not pass through it."""
    def count(cls):
        validated = []
        check = cls.__new__

        def counted(cls_, *args, **kwargs):
            built = check(cls_, *args, **kwargs)
            validated.append(built)
            return built

        monkeypatch.setattr(cls, "__new__", staticmethod(counted))
        return validated
    return count
