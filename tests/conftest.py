import pytest


@pytest.fixture
def count_validations(monkeypatch):
    """`count_validations(cls)` wraps `cls.__post_init__` so that every
    object it checks is appended to the returned list; the check still
    runs."""
    def count(cls):
        validated = []
        check = cls.__post_init__

        def counted(self):
            validated.append(self)
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
        return validated
    return count
