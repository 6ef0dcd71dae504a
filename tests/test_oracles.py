import ast
import inspect

import pytest
from test_package import PACKAGE, bool_checks

from figulat import oracles
from figulat.errors import BudgetExceededError, DomainError
from figulat.lattice import cube_points, point_multiplicity
from figulat.oracles import (
    MAX_SCAN,
    oracle_collapsed_faces,
    oracle_facet_contains,
    oracle_set_partitions,
    oracle_signed_cover,
    oracle_surjection_to_facet,
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

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(oracles, "MAX_SCAN", 26)
        with pytest.raises(BudgetExceededError, match="needs 27, budget is 26"):
            oracle_weakly_decreasing_tuples(3, 3)


class TestOracleCollapsedFaces:
    def test_faces_are_plain_tuples(self):
        faces = oracle_collapsed_faces(3, 1)
        assert type(faces) is dict
        assert all(type(blocks) is tuple and all(type(b) is tuple for b in blocks)
                   for blocks in faces)

    def test_cap_counts_every_expression(self, monkeypatch):
        # p=5, l=2: 5! * C(4, 2) = 720 expressions
        monkeypatch.setattr(oracles, "MAX_SCAN", 720)
        assert sum(oracle_collapsed_faces(5, 2).values()) == 720
        monkeypatch.setattr(oracles, "MAX_SCAN", 719)
        with pytest.raises(BudgetExceededError, match=r"\(p=5, l=2\).*needs 720, budget is 719"):
            oracle_collapsed_faces(5, 2)

    def test_default_cap_refuses_p_9(self):
        # 9! * C(8, 4) = 25,401,600 expressions at l=4
        with pytest.raises(BudgetExceededError, match=f"budget is {MAX_SCAN}$"):
            oracle_collapsed_faces(9, 4)

    @pytest.mark.parametrize("p,l", [(0, 0), (-1, 0), (3, 3), (3, -1)])
    def test_rejects_arguments_out_of_range(self, p, l):
        with pytest.raises(DomainError, match="0 <= l < p"):
            oracle_collapsed_faces(p, l)


@pytest.mark.parametrize("oracle, args, need, template", [
    *[pytest.param(oracle_surjections, (m, k), k ** m,
                   f"surjection scan for (m={m}, k={k}) exceeds the map cap",
                   id=f"surjections-{m}-{k}")
      for m, k in [(1, 1), (2, 2), (3, 2), (2, 3), (5, 2), (4, 3)]],
    *[pytest.param(oracle_weakly_decreasing_tuples, (k, n), n ** k,
                   f"tuple scan for (k={k}, n={n}) exceeds the point cap",
                   id=f"tuples-{k}-{n}")
      for k, n in [(1, 1), (1, 7), (2, 4), (4, 2), (3, 3), (5, 3)]],
    *[pytest.param(oracle_collapsed_faces, (p, l), need,
                   f"chain-expression collapse for (p={p}, l={l}) exceeds the expression cap",
                   id=f"collapsed-{p}-{l}")
      for p, l, need in [(1, 0, 1), (2, 0, 2), (2, 1, 2), (3, 1, 12), (4, 2, 72), (5, 2, 720)]],
])
def test_each_scan_runs_at_its_need_and_refuses_one_below(monkeypatch, oracle, args, need, template):
    """Every scan reads `MAX_SCAN` when called: a budget equal to the scan's
    need is enough, one less is refused with the exact message."""
    monkeypatch.setattr(oracles, "MAX_SCAN", need)
    oracle(*args)
    monkeypatch.setattr(oracles, "MAX_SCAN", need - 1)
    with pytest.raises(BudgetExceededError) as refusal:
        oracle(*args)
    assert str(refusal.value) == f"{template}: needs {need}, budget is {need - 1}"
    assert (refusal.value.required, refusal.value.budget) == (need, need - 1)


DATA_ARGUMENTS = {
    "oracle_surjections": ["m", "k"],
    "oracle_set_partitions": ["m"],
    "oracle_weakly_decreasing_tuples": ["k", "n"],
    "oracle_collapsed_faces": ["p", "l"],
    "oracle_facet_contains": ["blocks", "coords"],
    "oracle_surjection_to_facet": ["values"],
    "oracle_signed_cover": ["point"],
}


def test_the_oracles_take_only_data_and_refuse_in_one_place_each():
    """No oracle takes a cap: each scan refuses past the one `MAX_SCAN`.
    One helper tests for bools and one raises every refusal of a need."""
    assert {name: list(inspect.signature(oracle).parameters)
            for name, oracle in vars(oracles).items()
            if name.startswith("oracle_")} == DATA_ARGUMENTS
    source = (PACKAGE / "oracles.py").read_text()
    assert len(bool_checks(ast.parse(source))) == 1
    assert source.count("raise BudgetExceededError") == 1


@pytest.mark.parametrize("oracle,args,position", [
    (oracle_surjections, (2, 2), 0),
    (oracle_surjections, (2, 2), 1),
    (oracle_set_partitions, (2,), 0),
    (oracle_weakly_decreasing_tuples, (2, 2), 0),
    (oracle_weakly_decreasing_tuples, (2, 2), 1),
    (oracle_collapsed_faces, (2, 1), 0),
    (oracle_collapsed_faces, (2, 1), 1),
], ids=["oracle_surjections-first", "oracle_surjections-second", "oracle_set_partitions",
       "oracle_weakly_decreasing_tuples-first", "oracle_weakly_decreasing_tuples-second",
       "oracle_collapsed_faces-first", "oracle_collapsed_faces-second"])
@pytest.mark.parametrize("bad", [bool, float, lambda v: v + 0.5],
                         ids=["bool", "float", "fraction"])
def test_oracles_reject_bools_and_non_integers(oracle, args, position, bad):
    """Each argument of a valid call, turned into a bool, a float of the
    same value or a fraction, is refused rather than answered."""
    oracle(*args)
    wrong = list(args)
    wrong[position] = bad(args[position])
    with pytest.raises(DomainError):
        oracle(*wrong)


class TestOracleFacetContains:
    def test_weakly_decreasing(self):
        blocks = ((1,), (2,))
        assert oracle_facet_contains(blocks, (1, 0))
        assert oracle_facet_contains(blocks, (1, 1))
        assert not oracle_facet_contains(blocks, (0, 1))

    def test_equality_block(self):
        blocks = ((1, 2),)
        assert not oracle_facet_contains(blocks, (1, 0))
        assert oracle_facet_contains(blocks, (1, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            oracle_facet_contains(((1, 2),), (1, 0, 0))


class TestOracleSurjectionToFacet:
    def test_examples(self):
        assert oracle_surjection_to_facet((1, 1, 2)) == ((1, 2), (3,))
        assert oracle_surjection_to_facet([1, 2, 3]) == ((1,), (2,), (3,))
        assert oracle_surjection_to_facet((2, 1, 2)) == ((2,), (1, 3))

    @pytest.mark.parametrize("values", [
        pytest.param((1, 3), id="skips-2"),
        pytest.param((), id="empty"),
        pytest.param((0, 1), id="zero"),
        pytest.param((-1,), id="negative"),
        pytest.param((2, 2), id="misses-1"),
        pytest.param((1, True), id="bool"),
        pytest.param((1, 2.0), id="float"),
    ])
    def test_refuses_a_map_that_is_not_onto_1_to_k(self, values):
        with pytest.raises(DomainError):
            oracle_surjection_to_facet(values)


class TestOracleSignedCover:
    def test_reads_only_the_coordinates(self):
        assert oracle_signed_cover([2, 0, 2, 1]) == 1

    def test_agrees_with_geometric_multiplicity(self):
        for p in range(1, 5):
            for n in range(1, 4):
                for q in cube_points(p, n):
                    assert oracle_signed_cover(q) == point_multiplicity(q) == 1
