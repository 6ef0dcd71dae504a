import gc

import pytest
from hypothesis import settings

# Every property draws the same examples on every run, and no example
# database is written, so the suite is reproducible.
settings.register_profile(
    "tier1", derandomize=True, database=None, deadline=None, max_examples=100
)
settings.load_profile("tier1")


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


@pytest.fixture
def live_objects():
    """`live_objects(cls)` lists the objects of type `cls` that the garbage
    collector tracks after a full collection. A count of faces means
    something only if the collector sees faces, so the fixture first checks
    that it finds one the test holds."""
    from figulat.facets import OrderedSetPartition

    def live(cls):
        gc.collect()
        return [o for o in gc.get_objects() if isinstance(o, cls)]

    held = OrderedSetPartition(((1,),))
    assert any(o is held for o in live(OrderedSetPartition))
    return live
