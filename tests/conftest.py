import gc
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis's pytest plugin caches the constants of local source files at
# collection, whatever the settings; this keeps that cache, and any other
# file it writes, out of the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "figulat-hypothesis")

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


@pytest.fixture
def record_calls(monkeypatch):
    """`record_calls(run)` calls `run()` under `sys.setprofile` and counts
    the figulat functions it calls, by 'module.qualname'. The face index,
    the Stirling memo and the kept face-count row are emptied before each
    run, so no call hides behind a hit that an earlier test cached.
    Comprehensions and generator expressions run in frames of their own and
    are left out, since the function that made them is counted already; a
    generator counts once more each time it resumes."""
    from figulat import combinatorics, lattice

    def record(run):
        lattice._face_index.cache_clear()
        combinatorics.stirling2_recurrence.cache_clear()
        monkeypatch.setattr(combinatorics, "_facet_row", (0, []))
        called = Counter()

        def profile(frame, event, arg):
            module = frame.f_globals.get("__name__", "")
            code = frame.f_code
            if event == "call" and module.startswith("figulat.") and code.co_name[0] != "<":
                called[f"{module}.{getattr(code, 'co_qualname', code.co_name)}"] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(previous)
        return called
    return record
