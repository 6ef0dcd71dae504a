from math import factorial
from types import SimpleNamespace

import pytest

from figulat.errors import BudgetExceededError, DomainError
from figulat.lattice import LatticePoint, cube_points, point_multiplicity
from figulat.oracles import (
    oracle_set_partitions,
    oracle_signed_cover,
    oracle_surjections,
    oracle_weakly_decreasing_tuples,
)


class TestOracleSurjections:
    def test_three_onto_two(self):
        maps = oracle_surjections(3, 2)
        assert len(maps) == 6
        assert maps[0] == (1, 1, 2) and type(maps[0]) is tuple

    def test_bijections(self):
        assert len(oracle_surjections(2, 2)) == 2

    def test_onto_larger_set(self):
        assert oracle_surjections(2, 3) == []

    def test_lexicographic(self):
        values = oracle_surjections(4, 2)
        assert values == sorted(values)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            oracle_surjections(30, 10)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            oracle_surjections(0, 1)


class TestOracleSetPartitions:
    def test_bell_numbers(self):
        # Bell numbers for m = 0..8
        expected = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
        for m, bell in enumerate(expected):
            assert len(oracle_set_partitions(m)) == bell

    def test_canonical_form(self):
        for partition in oracle_set_partitions(4):
            flattened = sorted(i for block in partition for i in block)
            assert flattened == [1, 2, 3, 4]
            mins = [block[0] for block in partition]
            assert mins == sorted(mins)
            for block in partition:
                assert list(block) == sorted(block)

    def test_size_cap(self):
        with pytest.raises(BudgetExceededError):
            oracle_set_partitions(11)

    def test_rejects_negative_size(self):
        with pytest.raises(DomainError):
            oracle_set_partitions(-1)


class TestOracleWeaklyDecreasing:
    def test_examples(self):
        assert oracle_weakly_decreasing_tuples(2, 4) == 10
        assert oracle_weakly_decreasing_tuples(5, 1) == 1
        assert oracle_weakly_decreasing_tuples(1, 7) == 7

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            oracle_weakly_decreasing_tuples(0, 3)

    def test_budget(self):
        with pytest.raises(BudgetExceededError, match="needs 27, budget is 26"):
            oracle_weakly_decreasing_tuples(3, 3, max_points=26)


class TestOracleSignedCover:
    def test_hand_checked(self):
        assert oracle_signed_cover(LatticePoint((1, 0), 2)) == 1
        # one group of size 2: -1!*S(2,1) + 2!*S(2,2) = -1 + 2
        assert oracle_signed_cover(LatticePoint((1, 1), 2)) == 1

    def test_reads_only_the_coordinates(self):
        assert oracle_signed_cover(SimpleNamespace(coords=(2, 0, 2, 1))) == 1

    def test_agrees_with_geometric_multiplicity(self):
        for p in range(1, 5):
            for n in range(1, 4):
                for q in cube_points(p, n):
                    assert oracle_signed_cover(q) == point_multiplicity(q) == 1
