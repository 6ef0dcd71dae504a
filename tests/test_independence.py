"""The three routes and the oracles stay separate computations.

Each route and each oracle runs on a few small cells while the
`record_calls` fixture records every figulat function it calls. The
recorded call sets may overlap only where the design says they do: the
algebraic route shares nothing but argument validation with the other
routes, the geometric and pointwise routes share only the budget checks
of `figulat.errors` (the expression budget of every codimension, and the
check of a cap and of a need against it), and each oracle calls only its
own module.
"""
import pytest

from figulat import oracles
from figulat.lattice import cube_points
from figulat.verifier import verify_algebraic, verify_geometric, verify_pointwise

CELLS = [(1, 1), (2, 3), (3, 2), (4, 3)]

VALIDATE = {"figulat.verifier._validate", "figulat.errors.check_integers"}
BUDGET = {
    "figulat.errors.check_expressions",
    "figulat.errors.check_cap",
    "figulat.errors.check_need",
}


def route_calls(route, record_calls):
    """The functions a route calls."""
    def run():
        for p, n in CELLS:
            assert route(p, n).ok is True
    return set(record_calls(run))


@pytest.fixture
def routes(record_calls):
    return {
        route.__name__: route_calls(route, record_calls)
        for route in (verify_algebraic, verify_geometric, verify_pointwise)
    }


def test_algebraic_route_shares_only_validation(routes):
    algebraic = routes.pop("verify_algebraic")
    assert {"figulat.combinatorics.facet_counts", "figulat.combinatorics.figurates"} <= algebraic
    for other in routes.values():
        assert algebraic & other == VALIDATE


def test_geometric_and_pointwise_share_only_the_budget_checks(routes):
    geometric, pointwise = routes["verify_geometric"], routes["verify_pointwise"]
    assert geometric & pointwise == VALIDATE | BUDGET
    for route in (geometric, pointwise):
        assert not {name for name in route if name.startswith("figulat.combinatorics.")}


def test_pointwise_and_the_signed_cover_oracle_share_nothing(routes, record_calls):
    points = [q for p, n in CELLS for q in cube_points(p, n)]

    def run():
        for q in points:
            assert oracles.oracle_signed_cover(q) == 1
    cover = record_calls(run)
    assert "figulat.oracles._group_factor" in cover
    assert not cover.keys() & routes["verify_pointwise"]


@pytest.mark.parametrize("oracle, args", [
    (oracles.oracle_signed_cover, ((2, 0, 2, 1),)),
    (oracles.oracle_surjections, (4, 2)),
    (oracles.oracle_set_partitions, (4,)),
    (oracles.oracle_weakly_decreasing_tuples, (3, 4)),
    (oracles.oracle_collapsed_faces, (4, 2)),
    (oracles.oracle_facet_contains, (((2,), (1, 3)), (1, 0, 1))),
    (oracles.oracle_surjection_to_facet, ((2, 1, 2),)),
])
def test_each_oracle_calls_only_its_own_module(oracle, args, record_calls):
    called = record_calls(lambda: oracle(*args))
    assert f"figulat.oracles.{oracle.__name__}" in called
    assert all(name.startswith("figulat.oracles.") for name in called)
