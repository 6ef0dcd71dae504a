from collections.abc import Iterator
from math import comb, factorial

import pytest

from figulat import facets, lattice, verifier
from figulat.combinatorics import stirling2_inclusion_exclusion
from figulat.errors import BudgetExceededError, DomainError
from figulat.facets import OrderedSetPartition
from figulat.verifier import (
    SkippedCell,
    VerificationReport,
    sweep,
    verify_algebraic,
    verify_geometric,
    verify_pointwise,
)

# Each is rejected by every route with a DomainError, before any work.
OUT_OF_DOMAIN = [(0, 1), (1, 0), (2, True), (True, 2), (2, 2.0), (2.0, 2)]


def assert_rejects_out_of_domain(route):
    for p, n in OUT_OF_DOMAIN:
        with pytest.raises(DomainError):
            route(p, n)


class TestAlgebraicRoute:
    def test_p3_n2_terms(self):
        report = verify_algebraic(3, 2)
        assert report.lhs == 8 and report.ok
        assert [(t.l, t.facet_count, t.per_facet_points) for t in report.per_l_terms] == [
            (0, 6, 4), (1, 6, 3), (2, 1, 2),
        ]
        assert [t.signed_term for t in report.per_l_terms] == [24, -18, 2]

    def test_p1_collapses(self):
        report = verify_algebraic(1, 5)
        assert report.lhs == 5 and report.rhs == 5 and report.ok
        assert len(report.per_l_terms) == 1

    def test_p4_n2_term_values(self):
        report = verify_algebraic(4, 2)
        assert report.lhs == 16 and report.ok
        assert [t.signed_term for t in report.per_l_terms] == [120, -144, 42, -2]

    def test_rejects_out_of_domain(self):
        assert_rejects_out_of_domain(verify_algebraic)

    def test_rhs_is_the_closed_form_sum(self):
        for p in range(1, 40):
            for n in range(1, 4):
                report = verify_algebraic(p, n)
                assert report.rhs == sum(t.signed_term for t in report.per_l_terms)
                assert [t.signed_term for t in report.per_l_terms] == [
                    (-1) ** t.l * t.facet_count * t.per_facet_points
                    for t in report.per_l_terms
                ]

    def test_terms_match_independent_closed_forms(self):
        """Each term against inclusion-exclusion Stirling numbers and
        math.comb, with p revisited out of order."""
        for p in [1, 9, 30, 4, 30, 12, 1]:
            for n in range(1, 5):
                for t in verify_algebraic(p, n).per_l_terms:
                    count = factorial(p - t.l) * stirling2_inclusion_exclusion(p, p - t.l)
                    points = comb(n + p - t.l - 1, p - t.l)
                    assert (t.facet_count, t.per_facet_points) == (count, points)
                    assert t.signed_term == (-1) ** t.l * count * points


class TestGeometricRoute:
    def test_p2_n2(self):
        report = verify_geometric(2, 2)
        assert report.ok and report.rhs == 4
        assert [(t.l, t.facet_count, t.per_facet_points) for t in report.per_l_terms] == [
            (0, 2, 3), (1, 1, 2),
        ]

    def test_single_point_cube(self):
        report = verify_geometric(3, 1)
        assert report.ok and report.rhs == 1

    def test_p3_n2(self):
        report = verify_geometric(3, 2)
        assert report.ok and report.rhs == 8
        assert [t.signed_term for t in report.per_l_terms] == [24, -18, 2]

    def test_rejects_out_of_domain(self):
        assert_rejects_out_of_domain(verify_geometric)

    def test_point_cap_applies_to_one_face_not_the_cell(self):
        # The largest face needs 2^3 = 8 points of budget; the cell has 44.
        report = verify_geometric(3, 2, max_points=8)
        assert report.ok and report.points_enumerated == 44

    def test_enumeration_actually_ran(self):
        for p in range(1, 4):
            for n in range(2, 4):
                assert verify_geometric(p, n).points_enumerated > 0

    def test_every_expression_cap_is_checked_before_any_face(self, monkeypatch):
        # p=5 needs 120, 480 and 720 expressions for l = 0, 1, 2.
        def refuse(*args):
            raise AssertionError("enumerate_facets was called")
        monkeypatch.setattr(facets, "enumerate_facets", refuse)
        with pytest.raises(BudgetExceededError, match=r"\(p=5, l=2\).*needs 720, budget is 500"):
            verify_geometric(5, 1, max_expressions=500)

    def test_each_codimension_is_built_with_no_earlier_face_alive(
        self, monkeypatch, live_objects
    ):
        real = facets.enumerate_facets
        before = len(live_objects(OrderedSetPartition))
        alive = []

        def spy(p, l, max_expressions):
            alive.append(len(live_objects(OrderedSetPartition)) - before)
            return real(p, l, max_expressions)

        monkeypatch.setattr(facets, "enumerate_facets", spy)
        assert verify_geometric(6, 2).ok is True
        assert alive == [0] * 6


class TestPointwiseRoute:
    def test_p2_n2(self):
        report = verify_pointwise(2, 2)
        assert report.ok and report.rhs == 4 and report.points_enumerated == 4
        assert report.per_l_terms == ()
        assert report.first_failure is None

    def test_rejects_out_of_domain(self):
        assert_rejects_out_of_domain(verify_pointwise)

    def test_side_one(self):
        for p in range(1, 5):
            report = verify_pointwise(p, 1)
            assert report.ok and report.rhs == 1

    def test_p3_n2_cube_scan(self):
        report = verify_pointwise(3, 2)
        assert report.ok and report.rhs == 8 and report.points_enumerated == 8

    def test_expression_cap_is_checked_before_the_scan(self):
        # p=4, l=0 needs 4! = 24 expressions; l=1 needs 4! * 3 = 72.
        with pytest.raises(BudgetExceededError, match=r"\(p=4, l=0\).*needs 24, budget is 23"):
            verify_pointwise(4, 1, max_expressions=23)
        with pytest.raises(BudgetExceededError, match=r"\(p=4, l=1\).*needs 72, budget is 71"):
            verify_pointwise(4, 1, max_expressions=71)
        assert verify_pointwise(4, 2, max_expressions=72).ok

    def test_cube_cap_is_checked_first(self):
        with pytest.raises(BudgetExceededError, match="cube scan"):
            verify_pointwise(3, 3, max_points=8, max_expressions=1)

    def test_first_failure_is_the_plain_coordinate_tuple(self, monkeypatch):
        monkeypatch.setattr(lattice, "point_multiplicity",
                            lambda point, *, max_expressions: 0 if point[0] else 1)
        report = verify_pointwise(2, 3)
        assert report.ok is False and report.rhs == 3
        assert type(report.first_failure) is tuple and report.first_failure == (1, 0)


def test_count_counts_every_item_and_reads_no_further():
    # Falsy items count too, and the count neither stops early nor runs one over.
    assert verifier._count(iter([])) == 0
    assert verifier._count([None, 0, (), ""]) == 4
    items = iter(range(1000))
    assert verifier._count(items) == 1000
    assert next(items, None) is None


def test_budgets_are_keyword_only_on_both_routes():
    for route in (verify_geometric, verify_pointwise):
        with pytest.raises(TypeError):
            route(2, 2, 10 ** 6)


@pytest.mark.parametrize("budget", ["max_points", "max_expressions"])
@pytest.mark.parametrize("cap", [True, 0, -5, 2.0, "x", None])
def test_both_routes_refuse_a_budget_that_is_not_a_positive_integer(budget, cap):
    for route in (verify_geometric, verify_pointwise):
        with pytest.raises(DomainError, match="cap must be an integer >= 1"):
            route(1, 1, **{budget: cap})


class TestSweep:
    def test_grid_size_and_order(self):
        cells = list(sweep(range(1, 3), range(1, 3)))
        assert len(cells) == 12
        keys = [(c.p, c.n, c.route) for c in cells]
        routes = ("algebraic", "geometric", "pointwise")
        assert keys == [
            (p, n, r) for p in (1, 2) for n in (1, 2) for r in routes
        ]
        assert all(isinstance(c, VerificationReport) and c.ok for c in cells)

    def test_returns_iterator_not_list(self):
        cells = sweep(range(1, 3), range(1, 3), ["algebraic"])
        assert isinstance(cells, Iterator) and not isinstance(cells, list)
        assert (next(cells).p, next(cells).n) == (1, 2)

    def test_single_cell(self):
        cells = list(sweep(range(1, 2), range(1, 2), ["algebraic"]))
        assert len(cells) == 1 and cells[0].ok

    def test_algebraic_only_grid(self):
        cells = list(sweep(range(1, 5), range(1, 4), ["algebraic"]))
        assert len(cells) == 12 and all(c.ok for c in cells)

    def test_ranges_need_not_start_at_one(self):
        cells = list(sweep(range(3, 5), range(2, 3), ["algebraic"]))
        assert [(c.p, c.n) for c in cells] == [(3, 2), (4, 2)]

    def test_route_agreement(self):
        cells = list(sweep(range(1, 5), range(1, 4)))
        assert len(cells) == 36
        assert all(c.rhs == c.n ** c.p for c in cells)

    def test_budget_produces_skip_not_abort(self):
        cells = list(sweep(range(1, 4), range(1, 4), ["pointwise"], max_points=8))
        skipped = [c for c in cells if isinstance(c, SkippedCell)]
        done = [c for c in cells if isinstance(c, VerificationReport)]
        assert skipped and done and len(cells) == 9
        assert all(c.ok for c in done)

    def test_expression_cap_skips_geometric_and_pointwise_alike(self):
        cells = list(sweep([4], [1], max_expressions=71))
        assert [type(c) for c in cells] == [VerificationReport, SkippedCell, SkippedCell]
        assert cells[1].reason == cells[2].reason

    def test_a_need_too_long_to_print_still_skips(self):
        # p! has 5,736 digits at p=2000, more than an int prints by default.
        cells = list(sweep([2000], [1], ["geometric", "pointwise"]))
        assert [(type(c), c.route) for c in cells] == [
            (SkippedCell, "geometric"), (SkippedCell, "pointwise")]
        bits = factorial(2000).bit_length() - 1
        assert all("(p=2000, l=0)" in c.reason and f"needs at least 2^{bits}," in c.reason
                   for c in cells)

    def test_reads_iterators_once(self):
        cells = list(sweep(iter([1, 2]), iter([1, 2]), ["algebraic"]))
        assert [(c.p, c.n) for c in cells] == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_rejects_unknown_route(self):
        with pytest.raises(DomainError):
            sweep(range(1, 3), range(1, 3), ["sideways"])

    def test_rejects_values_below_one(self):
        with pytest.raises(DomainError):
            sweep(range(0, 3), range(1, 3))

    @pytest.mark.parametrize("ps,ns", [([2], [True]), ([2.0], [1]), ([1, 2, 0.5], [])])
    def test_rejects_values_a_route_rejects_at_call_time(self, ps, ns):
        with pytest.raises(DomainError, match="requires integer p and n"):
            sweep(ps, ns)

    @pytest.mark.parametrize("budget, name", [("max_expressions", "expression"),
                                              ("max_points", "point")])
    @pytest.mark.parametrize("cap", [True, 0, 2.0])
    def test_rejects_a_bad_cap_at_call_time_whatever_the_routes(self, budget, name, cap):
        with pytest.raises(DomainError, match=f"^{name} cap must be an integer >= 1"):
            sweep([1, 2], [1], ["algebraic", "geometric"], **{budget: cap})
