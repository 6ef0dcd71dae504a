import random
import sys
from functools import cache
from itertools import product
from math import comb, factorial

import pytest

from figulat import combinatorics
from figulat.combinatorics import (
    facet_count,
    facet_counts,
    figurate,
    figurates,
    stirling2_inclusion_exclusion,
    stirling2_recurrence,
)
from figulat.errors import DomainError
from figulat.verifier import verify_algebraic
from test_facets import brute_surjections


def count_weakly_decreasing(k, n):
    return sum(
        1 for t in product(range(n), repeat=k) if all(a >= b for a, b in zip(t, t[1:]))
    )


def count_partitions_into(m, j):
    """Set partitions of {0..m-1} into exactly j blocks, by assigning each
    element a block label in restricted-growth form."""
    def grow(labels, used):
        if len(labels) == m:
            return 1 if used == j else 0
        return sum(grow(labels + [b], max(used, b + 1)) for b in range(used + 1))
    return grow([], 0)


class TestFigurate:
    def test_dimension_one_is_side(self):
        for n in range(1, 10):
            assert figurate(1, n) == n

    def test_oracle_values(self):
        assert figurate(2, 4) == count_weakly_decreasing(2, 4) == 10
        assert figurate(3, 2) == count_weakly_decreasing(3, 2) == 4

    def test_side_one(self):
        for k in range(1, 10):
            assert figurate(k, 1) == 1

    def test_oracle_grid(self):
        for k in range(1, 7):
            for n in range(1, 7):
                assert figurate(k, n) == count_weakly_decreasing(k, n)

    @pytest.mark.parametrize("k,n", [(0, 3), (3, 0), (0, 0)])
    def test_rejects_zero(self, k, n):
        with pytest.raises(DomainError):
            figurate(k, n)


class TestStirling:
    def test_oracle_values(self):
        assert stirling2_recurrence(3, 2) == count_partitions_into(3, 2) == 3
        assert stirling2_recurrence(4, 2) == count_partitions_into(4, 2) == 7

    def test_diagonal_and_single_block(self):
        for p in range(1, 15):
            assert stirling2_recurrence(p, p) == 1
            assert stirling2_recurrence(p, 1) == 1

    def test_inclusion_exclusion_values(self):
        assert stirling2_inclusion_exclusion(4, 2) == 7
        assert stirling2_inclusion_exclusion(3, 3) == 1
        assert stirling2_inclusion_exclusion(2, 1) == 1

    def test_inclusion_exclusion_rejects_j_zero(self):
        with pytest.raises(DomainError):
            stirling2_inclusion_exclusion(3, 0)

    @pytest.mark.parametrize("route,m,j", [
        (stirling2_recurrence, -1, 0),
        (stirling2_recurrence, 0, -1),
        (stirling2_inclusion_exclusion, -1, 1),
    ])
    def test_rejects_negative_arguments(self, route, m, j):
        with pytest.raises(DomainError):
            route(m, j)

    def test_row_sums_are_bell_numbers(self):
        for m in range(1, 9):
            bell = sum(count_partitions_into(m, j) for j in range(1, m + 1))
            assert sum(stirling2_recurrence(m, j) for j in range(1, m + 1)) == bell


class TestSurjectionCount:
    """T(m, j) = j! * S(m, j) is the face count c_{m, m-j} for 1 <= j <= m;
    off that range the surjection count is read through S(m, j)."""

    def test_oracle_small(self):
        assert facet_count(3, 1) == len(brute_surjections(3, 2)) == 6

    def test_bijections(self):
        for p in range(1, 8):
            assert facet_count(p, 0) == factorial(p)

    def test_onto_larger_set_is_zero(self):
        assert stirling2_recurrence(2, 3) == 0
        for m in range(0, 6):
            assert stirling2_recurrence(m, m + 1) == stirling2_recurrence(m, 2 * m + 1) == 0

    def test_oracle_grid(self):
        for m in range(1, 7):
            for j in range(1, m + 1):
                assert facet_count(m, m - j) == len(brute_surjections(m, j))

    def test_empty_domain_or_codomain(self):
        assert stirling2_recurrence(0, 0) == 1
        for m in range(1, 6):
            assert stirling2_recurrence(m, 0) == stirling2_recurrence(0, m) == 0

    @pytest.mark.parametrize("m", range(0, 7))
    def test_factorial_times_stirling_counts_surjections(self, m):
        # Off 1 <= j <= m this reads stirling2_recurrence's own zero branch.
        for j in range(0, m + 2):
            assert factorial(j) * stirling2_recurrence(m, j) == len(brute_surjections(m, j))

    def test_rejects_negative_arguments(self):
        for m, j in [(-1, 0), (0, -1), (3, -2)]:
            with pytest.raises(DomainError):
                facet_count(m, m - j)
            with pytest.raises(DomainError):
                stirling2_recurrence(m, j)


class TestFacetCount:
    def test_top_dimension_counts_permutations(self):
        for p in range(1, 9):
            assert facet_count(p, 0) == factorial(p)

    def test_example(self):
        assert facet_count(4, 1) == 36 == len(brute_surjections(4, 3))

    def test_main_diagonal(self):
        for p in range(1, 9):
            assert facet_count(p, p - 1) == 1

    @pytest.mark.parametrize("p,l", [(3, 3), (3, -1), (3, 4), (0, 0)])
    def test_rejects_out_of_range(self, p, l):
        with pytest.raises(DomainError):
            facet_count(p, l)

    def test_matches_inclusion_exclusion_in_any_p_order(self):
        """Counts come from one row per p; visiting p up, down, shuffled
        and repeated catches a row kept for the wrong p."""
        ps = list(range(1, 61))
        shuffled = ps[:]
        random.Random(0).shuffle(shuffled)
        repeated = [7, 7, 3, 7, 60, 1, 60, 2, 2]
        for p in ps + ps[::-1] + shuffled + repeated:
            assert [facet_count(p, l) for l in range(p)] == [
                factorial(p - l) * stirling2_inclusion_exclusion(p, p - l)
                for l in range(p)
            ]


@pytest.mark.parametrize("form,args", [
    (figurate, (1, 1)),
    (facet_count, (1, 0)),
    (stirling2_recurrence, (1, 1)),
    (stirling2_inclusion_exclusion, (1, 1)),
], ids=["figurate", "facet_count", "stirling2_recurrence",
       "stirling2_inclusion_exclusion"])
@pytest.mark.parametrize("bad", [bool, float, lambda v: -v - 1],
                         ids=["bool", "float", "negative"])
@pytest.mark.parametrize("position", [0, 1], ids=["first", "second"])
def test_closed_forms_reject_bools_floats_and_negatives(form, args, bad, position):
    """Each argument of a valid call, turned into a bool or a float of the
    same value, or made negative, is refused. The valid call runs first,
    so a cached result cannot answer for the bad one."""
    form(*args)
    wrong = list(args)
    wrong[position] = bad(args[position])
    with pytest.raises(DomainError):
        form(*wrong)


@pytest.fixture
def recursion_limit_200():
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        yield
    finally:
        sys.setrecursionlimit(before)


@cache
def surjections_by_inclusion_exclusion(p, l):
    return factorial(p - l) * stirling2_inclusion_exclusion(p, p - l)


class TestSteppedFaceCountRow:
    """The surjection row T(p, .) of face counts is stepped from the row
    before it, so no depth of p reaches the recursion limit, and S(m, j) is
    read from the same row. The verify path never asks for S(m, j)."""

    @pytest.fixture(autouse=True)
    def no_row(self, monkeypatch):
        monkeypatch.setattr(combinatorics, "_facet_row", (0, []))

    def test_p1024_under_a_recursion_limit_of_200(self, recursion_limit_200):
        assert verify_algebraic(1024, 2).ok

    def test_stirling_at_m1000_under_a_recursion_limit_of_200(self, recursion_limit_200):
        for j in (1, 2, 500, 999, 1000):
            assert stirling2_recurrence(1000, j) == stirling2_inclusion_exclusion(1000, j)

    def test_verify_never_calls_stirling2_recurrence(self, record_calls):
        reports = []
        called = record_calls(lambda: reports.extend(
            verify_algebraic(p, n) for p in range(1, 61) for n in range(1, 4)))
        assert len(reports) == 180 and all(report.ok for report in reports)
        assert called["figulat.combinatorics.facet_count"] == 180
        assert called["figulat.combinatorics.stirling2_recurrence"] == 0

    @pytest.mark.parametrize("ps", [
        [1000, 1024], [1024, 1000], [1000, 1000, 1024, 1024, 1000],
    ], ids=["ascending", "descending", "repeated"])
    def test_large_p_matches_inclusion_exclusion(self, ps):
        for p in ps:
            for l in (0, 1, p // 2, p - 2, p - 1):
                assert facet_count(p, l) == surjections_by_inclusion_exclusion(p, l)


# Up, down, repeated, and jumping back to a smaller p: each visit either
# reads the kept row, steps on from it, or restarts from T(1, .).
ROW_VISITS = [*range(1, 61), *range(60, 0, -1), 7, 7, 3, 60, 60, 1, 45, 2, 2, 59]


class TestRowForms:
    """`facet_counts(p)` and `figurates(p, n)` list, by codimension l, what
    `facet_count(p, l)` and `figurate(p - l, n)` return one at a time."""

    @pytest.fixture(autouse=True)
    def no_row(self, monkeypatch):
        monkeypatch.setattr(combinatorics, "_facet_row", (0, []))

    def test_facet_counts_match_the_scalar_form_and_inclusion_exclusion(self):
        for p in ROW_VISITS:
            row = facet_counts(p)
            assert row == [facet_count(p, l) for l in range(p)] == [
                surjections_by_inclusion_exclusion(p, l) for l in range(p)]

    def test_figurates_match_the_scalar_form_and_binomials(self):
        # And three long columns: at sides 1 and 3, as in a sweep, and 10**6.
        cells = [(p, n) for p in ROW_VISITS for n in range(1, 5)]
        cells += [(500, 1), (500, 3), (500, 10 ** 6)]
        for p, n in cells:
            assert figurates(p, n) == [figurate(p - l, n) for l in range(p)] == [
                comb(n + p - l - 1, p - l) for l in range(p)]

    def test_a_caller_that_changes_the_row_changes_no_later_count(self):
        expected = {p: [surjections_by_inclusion_exclusion(p, l) for l in range(p)]
                    for p in (7, 8)}
        row = facet_counts(7)
        row[0] = -1
        row.reverse()
        row.append(0)
        assert facet_count(7, 0) == 5040
        assert facet_counts(7) == expected[7]
        facet_counts(7).clear()
        # Stepped on from the kept row of 7.
        assert facet_counts(8) == expected[8]
        assert [facet_count(8, l) for l in range(8)] == expected[8]


@pytest.mark.parametrize("form,args,position", [
    (facet_counts, (1,), 0), (figurates, (1, 1), 0), (figurates, (1, 1), 1),
], ids=["facet_counts-p", "figurates-p", "figurates-n"])
@pytest.mark.parametrize("bad", [bool, float, lambda v: 0, lambda v: -v - 1],
                         ids=["bool", "float", "zero", "negative"])
def test_row_forms_reject_bools_floats_zero_and_negatives(form, args, position, bad):
    """As for the scalar forms, the valid call runs first."""
    form(*args)
    wrong = list(args)
    wrong[position] = bad(args[position])
    with pytest.raises(DomainError):
        form(*wrong)


@pytest.mark.parametrize("form,args,message", [
    (figurate, (True, 1), "figurate requires integer k and n, got (k=True, n=1)"),
    (figurate, (1, 2.0), "figurate requires integer k and n, got (k=1, n=2.0)"),
    (figurate, (0, 1), "figurate dimension must be >= 1, got k=0"),
    (figurate, (1, -1), "figurate side must be >= 1, got n=-1"),
    (facet_count, (1.0, 0), "facet_count requires integer p and l, got (p=1.0, l=0)"),
    (facet_count, (0, 0), "dimension must be >= 1, got p=0"),
    (facet_count, (3, 3), "codimension must satisfy 0 <= l <= p-1, got l=3 for p=3"),
    # Each row form refuses through one call of its scalar form; figurates
    # passes p as k.
    (figurates, (True, 1), "figurate requires integer k and n, got (k=True, n=1)"),
    (figurates, (1, 2.0), "figurate requires integer k and n, got (k=1, n=2.0)"),
    (figurates, (0, 1), "figurate dimension must be >= 1, got k=0"),
    (figurates, (1, -1), "figurate side must be >= 1, got n=-1"),
    (facet_counts, (1.0,), "facet_count requires integer p and l, got (p=1.0, l=0)"),
    (facet_counts, (0,), "dimension must be >= 1, got p=0"),
])
def test_closed_forms_keep_their_messages(form, args, message):
    with pytest.raises(DomainError) as refused:
        form(*args)
    assert str(refused.value) == message
