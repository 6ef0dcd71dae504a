from itertools import product
from math import comb, factorial

import pytest

from figulat.combinatorics import facet_count
from figulat.errors import BudgetExceededError, DomainError
from figulat.facets import (
    DEFAULT_MAX_EXPRESSIONS,
    OrderedSetPartition,
    _block_sequences,
    check_every_codimension,
    enumerate_facets,
    facet_to_surjection,
)
from figulat.oracles import oracle_collapsed_faces, oracle_surjection_to_facet
from figulat.verifier import LTerm, SkippedCell, VerificationReport


def brute_surjections(m, k):
    return [
        values
        for values in product(range(1, k + 1), repeat=m)
        if set(values) == set(range(1, k + 1))
    ]


@pytest.mark.parametrize("value", [
    pytest.param(OrderedSetPartition(((1, 2), (3,))), id="face"),
    pytest.param(LTerm(1, 6, 3, -18), id="term"),
    pytest.param(VerificationReport(2, 3, 9, "algebraic", 9, (LTerm(0, 2, 10, 20),), True),
                 id="report"),
    pytest.param(SkippedCell(9, 1, "geometric", "over the cap"), id="skipped"),
])
def test_value_equals_and_hashes_like_its_bare_tuple(value):
    """Every value type is a plain named tuple: no face or report is told
    apart from its fields by its type."""
    bare = tuple(value)
    assert value == bare and bare == value and not value != bare and not bare != value
    assert hash(value) == hash(bare)
    if isinstance(value, VerificationReport):
        assert bare[7:] == (0, None)  # seven fields given, the two defaults filled in


class TestValidatingConstructor:
    @pytest.mark.parametrize("cls, lists, tuples, non_integer", [
        pytest.param(OrderedSetPartition, ([[1], [2]],), (((1,), (2,)),),
                     (((1.0,), (2,)),), id="face"),
        pytest.param(OrderedSetPartition, ([[1], [2]],), (((1,), (2,)),),
                     (((True,), (2,)),), id="face-bool"),
    ])
    def test_stores_tuples_and_rejects_non_integers(self, cls, lists, tuples, non_integer):
        value = cls(*lists)
        assert tuple(value) == tuples
        assert value == cls(*tuples) and hash(value) == hash(cls(*tuples))
        with pytest.raises(DomainError, match="integer"):
            cls(*non_integer)

    def test_replace_validates(self):
        face = OrderedSetPartition(((1, 2), (3,)))
        assert face._replace(blocks=((1,), (2, 3))) == OrderedSetPartition(((1,), (2, 3)))
        with pytest.raises(DomainError):
            face._replace(blocks=((2, 1), (3,)))


class TestCollapsedFaces:
    """The oracle collapses the paper's chain expressions; these pin what
    it yields for the face generator to be checked against."""

    def test_p2(self):
        # x1>=x2 and x2>=x1; x1=x2 and x2=x1
        assert oracle_collapsed_faces(2, 0) == {((1,), (2,)): 1, ((2,), (1,)): 1}
        assert oracle_collapsed_faces(2, 1) == {((1, 2),): 2}

    def test_expression_counts(self):
        assert sum(oracle_collapsed_faces(3, 1).values()) == 12
        for p in range(1, 6):
            for l in range(p):
                count = sum(oracle_collapsed_faces(p, l).values())
                assert count == factorial(p) * comb(p - 1, l)

    def test_equality_runs_become_sorted_blocks(self):
        # x2=x1>=x3 collapses to {1,2}>={3}
        assert oracle_collapsed_faces(3, 1)[(1, 2), (3,)] == 2
        assert set(oracle_collapsed_faces(3, 0)) == {
            tuple((i,) for i in sigma) for sigma in product(range(1, 4), repeat=3)
            if len(set(sigma)) == 3
        }
        assert oracle_collapsed_faces(3, 2) == {((1, 2, 3),): 6}

    def test_every_collapse_has_p_minus_l_ascending_blocks(self):
        for p in range(1, 6):
            for l in range(p):
                for blocks in oracle_collapsed_faces(p, l):
                    assert len(blocks) == p - l
                    assert all(list(block) == sorted(block) for block in blocks)


class TestOrderedSetPartition:
    def test_rejects_empty_block(self):
        with pytest.raises(DomainError):
            OrderedSetPartition(((1,), ()))

    def test_rejects_no_blocks(self):
        with pytest.raises(DomainError):
            OrderedSetPartition(())

    def test_rejects_overlap(self):
        with pytest.raises(DomainError):
            OrderedSetPartition(((1, 2), (2, 3)))

    def test_rejects_unsorted_block(self):
        with pytest.raises(DomainError):
            OrderedSetPartition(((2, 1), (3,)))

    def test_rejects_repeat_within_a_block(self):
        with pytest.raises(DomainError):
            OrderedSetPartition(((1, 1),))

    @pytest.mark.parametrize("blocks", [((1,), (3,)), ((0, 1),)])
    def test_rejects_indices_that_miss_1_to_p(self, blocks):
        with pytest.raises(DomainError):
            OrderedSetPartition(blocks)

    def test_text_form(self):
        f = OrderedSetPartition(((1, 2), (3,)))
        assert f.text() == "{1,2}>={3}"


class TestEnumerateFacets:
    def test_diagonal_only(self):
        assert enumerate_facets(2, 1) == [OrderedSetPartition(((1, 2),))]

    def test_counts_match_closed_form(self):
        for p in range(1, 7):
            for l in range(p):
                faces = enumerate_facets(p, l)
                assert len(faces) == facet_count(p, l)
                assert len(faces) == len(brute_surjections(p, p - l))

    def test_top_dimension_counts_permutations(self):
        assert len(enumerate_facets(3, 0)) == 6

    def test_deterministic_sorted_order(self):
        faces = enumerate_facets(4, 2)
        assert [f.blocks for f in faces] == sorted(f.blocks for f in faces)

    def test_distinct_codimensions_are_disjoint(self):
        for p in range(1, 6):
            seen = set()
            for l in range(p):
                current = set(enumerate_facets(p, l))
                assert not (seen & current)
                seen |= current

    def test_expression_multiplicity_is_block_factorial_product(self):
        for p in range(1, 6):
            for l in range(p):
                for blocks, count in oracle_collapsed_faces(p, l).items():
                    expected = 1
                    for block in blocks:
                        expected *= factorial(len(block))
                    assert count == expected

    def test_faces_of_one_listing_share_their_block_tuples(self):
        # Each split of the indices left into a first block and the rest is
        # built once per listing, so far fewer block objects than block
        # slots exist: at p=7, l=1, 1,694 objects fill 90,720 slots.
        for l in (1, 2, 3):
            slots = [b for f in enumerate_facets(7, l) for b in f.blocks]
            assert len({id(b) for b in slots}) * 4 <= len(slots)

    def test_block_sequences_are_generated_sorted(self):
        for p in range(1, 8):
            for k in range(1, p + 1):
                sequences = list(_block_sequences(tuple(range(1, p + 1)), k))
                assert sequences == sorted(sequences)

    @pytest.mark.parametrize("p", range(1, 8))
    def test_direct_generation_matches_chain_expression_collapse(self, p):
        for l in range(p):
            collapsed = sorted(oracle_collapsed_faces(p, l))
            assert [face.blocks for face in enumerate_facets(p, l)] == collapsed

    def test_collapse_builds_no_face_and_yields_only_valid_ones(self, count_validations):
        validated = count_validations(OrderedSetPartition)
        for l in range(5):
            collapsed = oracle_collapsed_faces(5, l)
            assert validated == []
            for blocks in collapsed:
                assert type(blocks) is tuple
                OrderedSetPartition(blocks)
            assert len(validated) == len(collapsed)
            validated.clear()

    def test_generated_faces_skip_validation_and_pass_it(self, count_validations):
        validated = count_validations(OrderedSetPartition)
        for p in range(1, 8):
            for l in range(p):
                faces = enumerate_facets(p, l)
                assert validated == []
                for face in faces:
                    assert type(face) is OrderedSetPartition
                    rebuilt = OrderedSetPartition(face.blocks)
                    assert rebuilt == face and not rebuilt != face and hash(rebuilt) == hash(face)
                assert len(validated) == len(faces)
                validated.clear()

    def test_expression_cap_checked_before_any_face(self):
        required = factorial(6) * comb(5, 2)
        with pytest.raises(BudgetExceededError, match=r"\(p=6, l=2\)"):
            enumerate_facets(6, 2, max_expressions=required - 1)
        assert len(enumerate_facets(6, 2, max_expressions=required)) == facet_count(6, 2)

    def test_a_need_too_long_to_print_is_refused_by_its_size(self):
        # factorial(2000) has 5,736 digits, more than an int prints by default.
        with pytest.raises(BudgetExceededError) as refused:
            enumerate_facets(2000, 0)
        assert refused.value.required == factorial(2000)
        assert str(refused.value).endswith(
            f"needs at least 2^{factorial(2000).bit_length() - 1}, budget is "
            f"{DEFAULT_MAX_EXPRESSIONS}")

    @pytest.mark.parametrize("p,l", [(True, 0), (2.0, 0), (2, True), (2, 1.0)])
    def test_rejects_dimension_or_codimension_not_an_integer(self, p, l):
        with pytest.raises(DomainError, match="must be an integer"):
            enumerate_facets(p, l)

    def test_rejects_bad_codimension(self):
        with pytest.raises(DomainError):
            enumerate_facets(3, 3)

    @pytest.mark.parametrize("cap", [True, 0, -5, 2.0, "x", None])
    def test_rejects_a_cap_that_is_not_a_positive_integer(self, cap):
        for check in (lambda: enumerate_facets(3, 1, max_expressions=cap),
                      lambda: check_every_codimension(3, cap)):
            with pytest.raises(DomainError, match="^expression cap must be an integer >= 1"):
                check()


class TestCheckEveryCodimension:
    def test_reports_the_first_codimension_over_the_cap(self):
        # p=5 needs 120, 480, 720, 480 and 120 expressions for l = 0..4.
        with pytest.raises(BudgetExceededError, match=r"\(p=5, l=0\).*needs 120, budget is 119"):
            check_every_codimension(5, 119)
        with pytest.raises(BudgetExceededError, match=r"\(p=5, l=2\).*needs 720, budget is 719"):
            check_every_codimension(5, 719)
        check_every_codimension(5, 720)

    @pytest.mark.parametrize("p", [0, -3, True, 2.0])
    def test_rejects_bad_dimension(self, p):
        with pytest.raises(DomainError, match="^dimension must be "):
            check_every_codimension(p, 1)


class TestSurjectionBijection:
    def test_facet_to_surjection_examples(self):
        assert facet_to_surjection(OrderedSetPartition(((1, 2), (3,)))) == (1, 1, 2)
        assert facet_to_surjection(OrderedSetPartition(((1,), (2,), (3,)))) == (1, 2, 3)
        assert facet_to_surjection(OrderedSetPartition(((3,), (1, 2)))) == (2, 2, 1)

    def test_round_trip_both_ways(self):
        for p in range(1, 6):
            for l in range(p):
                for face in enumerate_facets(p, l):
                    assert oracle_surjection_to_facet(facet_to_surjection(face)) == face.blocks
                for values in brute_surjections(p, p - l):
                    face = OrderedSetPartition(oracle_surjection_to_facet(values))
                    assert facet_to_surjection(face) == values
