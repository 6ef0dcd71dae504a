import random
from itertools import product
from math import factorial

import pytest
from hypothesis import given, strategies as st

from figulat.combinatorics import (
    facet_count,
    figurate,
    rhs_identity,
    stirling2_inclusion_exclusion,
    stirling2_recurrence,
    stirling_identity_eval,
    surjection_count,
)
from figulat.errors import DomainError


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


def count_surjections(m, j):
    return sum(
        1
        for values in product(range(j), repeat=m)
        if set(values) == set(range(j))
    )


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

    def test_two_routes_agree(self):
        for m in range(0, 13):
            for j in range(1, m + 1):
                assert stirling2_recurrence(m, j) == stirling2_inclusion_exclusion(m, j)

    def test_inclusion_exclusion_values(self):
        assert stirling2_inclusion_exclusion(4, 2) == 7
        assert stirling2_inclusion_exclusion(3, 3) == 1
        assert stirling2_inclusion_exclusion(2, 1) == 1

    def test_inclusion_exclusion_rejects_j_zero(self):
        with pytest.raises(DomainError):
            stirling2_inclusion_exclusion(3, 0)

    def test_row_sums_are_bell_numbers(self):
        for m in range(1, 9):
            bell = sum(count_partitions_into(m, j) for j in range(1, m + 1))
            assert sum(stirling2_recurrence(m, j) for j in range(1, m + 1)) == bell


class TestSurjectionCount:
    def test_oracle_small(self):
        assert surjection_count(3, 2) == count_surjections(3, 2) == 6

    def test_bijections(self):
        for p in range(1, 8):
            assert surjection_count(p, p) == factorial(p)

    def test_onto_larger_set_is_zero(self):
        assert surjection_count(2, 3) == 0

    def test_oracle_grid(self):
        for m in range(1, 7):
            for j in range(1, m + 1):
                assert surjection_count(m, j) == count_surjections(m, j)


class TestFacetCount:
    def test_top_dimension_counts_permutations(self):
        for p in range(1, 9):
            assert facet_count(p, 0) == factorial(p)

    def test_example(self):
        assert facet_count(4, 1) == 36 == count_surjections(4, 3)

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


class TestStirlingIdentity:
    def test_negative_substitution(self):
        assert stirling_identity_eval(2, -2) == 4

    def test_at_zero_and_one(self):
        for p in range(1, 13):
            assert stirling_identity_eval(p, 0) == 0
            assert stirling_identity_eval(p, 1) == 1

    @given(st.integers(1, 12), st.integers(-10, 10))
    def test_equals_power(self, p, x):
        assert stirling_identity_eval(p, x) == x ** p


class TestRhsIdentity:
    def test_hand_computed(self):
        # p=2, n=2: 2*F^2_2 - 1*F^1_2 = 2*3 - 2
        assert rhs_identity(2, 2) == 4
        # p=4, n=2: 24*5 - 36*4 + 14*3 - 1*2
        assert rhs_identity(4, 2) == 24 * 5 - 36 * 4 + 14 * 3 - 2 == 16

    def test_side_one(self):
        for p in range(1, 13):
            assert rhs_identity(p, 1) == 1

    def test_equals_power_grid(self):
        for p in range(1, 13):
            for n in range(1, 11):
                assert rhs_identity(p, n) == n ** p

    @pytest.mark.parametrize("p,n", [(0, 2), (2, 0)])
    def test_rejects_out_of_domain(self, p, n):
        with pytest.raises(DomainError):
            rhs_identity(p, n)
