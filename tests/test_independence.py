"""The three routes and the oracles stay separate computations.

Each route and each oracle runs on a few small cells while `sys.setprofile`
records every figulat function it calls. The recorded call sets may
overlap only where the design says they do: the algebraic route shares
nothing but argument validation with the other routes, the geometric and
pointwise routes share only face generation, and each oracle calls only
its own module. Value-type constructors are allowed in the routes only;
the oracles build no value of the package.
"""
import sys

import pytest

from figulat import combinatorics, lattice, oracles
from figulat.lattice import LatticePoint, cube_points
from figulat.verifier import verify_algebraic, verify_geometric, verify_pointwise

CELLS = [(1, 1), (2, 3), (3, 2), (4, 3)]

VALIDATE = {"figulat.verifier._validate", "figulat.errors.check_integers"}
FACE_GENERATION = {
    "figulat.facets.enumerate_facets",
    "figulat.facets._block_sequences",
    "figulat.facets._check_enumeration_budget",
    "figulat.facets.check_every_codimension",
}


def is_constructor(name):
    return name.endswith(".__new__")


def calls(run, monkeypatch):
    """The figulat functions that `run()` calls, as 'module.qualname'.
    Every cache starts empty, so no call hides behind a hit."""
    lattice._face_index.cache_clear()
    combinatorics.stirling2_recurrence.cache_clear()
    monkeypatch.setattr(combinatorics, "_facet_row", (0, []))
    seen = set()

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        # Comprehensions and generator expressions run in frames of their
        # own; the function that made them is recorded already.
        if event == "call" and module.startswith("figulat.") and frame.f_code.co_name[0] != "<":
            seen.add(f"{module}.{getattr(frame.f_code, 'co_qualname', frame.f_code.co_name)}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    lattice._face_index.cache_clear()
    return seen


def route_calls(route, monkeypatch):
    """The functions a route calls, value-type constructors left out."""
    def run():
        for p, n in CELLS:
            assert route(p, n).ok is True
    return {name for name in calls(run, monkeypatch) if not is_constructor(name)}


@pytest.fixture
def routes(monkeypatch):
    return {
        route.__name__: route_calls(route, monkeypatch)
        for route in (verify_algebraic, verify_geometric, verify_pointwise)
    }


def test_algebraic_route_shares_only_validation(routes):
    algebraic = routes.pop("verify_algebraic")
    assert {"figulat.combinatorics.facet_counts", "figulat.combinatorics.figurates"} <= algebraic
    for other in routes.values():
        assert algebraic & other == VALIDATE


def test_geometric_and_pointwise_share_only_face_generation(routes):
    geometric, pointwise = routes["verify_geometric"], routes["verify_pointwise"]
    assert geometric & pointwise == VALIDATE | FACE_GENERATION
    for route in (geometric, pointwise):
        assert not {name for name in route if name.startswith("figulat.combinatorics.")}


def test_pointwise_and_the_signed_cover_oracle_share_nothing(routes, monkeypatch):
    points = [q for p, n in CELLS for q in cube_points(p, n)]

    def run():
        for q in points:
            assert oracles.oracle_signed_cover(q) == 1
    cover = calls(run, monkeypatch)
    assert "figulat.oracles._group_factor" in cover
    assert not cover & routes["verify_pointwise"]


@pytest.mark.parametrize("oracle, args", [
    (oracles.oracle_signed_cover, (LatticePoint((2, 0, 2, 1), 3),)),
    (oracles.oracle_surjections, (4, 2)),
    (oracles.oracle_set_partitions, (4,)),
    (oracles.oracle_weakly_decreasing_tuples, (3, 4)),
    (oracles.oracle_collapsed_faces, (4, 2)),
    (oracles.oracle_facet_contains, (((2,), (1, 3)), (1, 0, 1))),
    (oracles.oracle_surjection_to_facet, ((2, 1, 2),)),
])
def test_each_oracle_calls_only_its_own_module(oracle, args, monkeypatch):
    called = calls(lambda: oracle(*args), monkeypatch)
    assert f"figulat.oracles.{oracle.__name__}" in called
    assert all(name.startswith("figulat.oracles.") for name in called)
