from collections import namedtuple
from itertools import product
from math import comb, factorial

import pytest

from figulat.combinatorics import facet_count
from figulat.errors import BudgetExceededError, DomainError
from figulat.facets import (
    EQ,
    GEQ,
    ChainExpression,
    OrderedSetPartition,
    Surjection,
    _block_sequences,
    canonicalize,
    check_every_codimension,
    enumerate_chain_expressions,
    enumerate_facets,
    facet_multiplicities,
    facet_to_surjection,
    surjection_to_facet,
)
from figulat.lattice import LatticePoint


def brute_surjections(m, k):
    return [
        values
        for values in product(range(1, k + 1), repeat=m)
        if set(values) == set(range(1, k + 1))
    ]


class TestStrictEquality:
    @pytest.mark.parametrize("cls, fields", [
        pytest.param(OrderedSetPartition, (((1, 2), (3,)),), id="face"),
        pytest.param(ChainExpression, ((2, 1, 3), (EQ, GEQ)), id="expression"),
        pytest.param(Surjection, ((1, 1, 2),), id="surjection"),
        pytest.param(LatticePoint, ((1, 0), 2), id="point"),
    ])
    def test_value_differs_from_its_bare_tuple(self, cls, fields):
        value = cls(*fields)
        assert value == cls(*fields) and not value != cls(*fields)
        assert tuple(value) == fields
        assert not value == fields and value != fields
        assert not fields == value and fields != value
        lookalike = namedtuple(cls.__name__, cls._fields)(*fields)
        assert not value == lookalike and value != lookalike

    @pytest.mark.parametrize("cls, lists, tuples, non_integer", [
        pytest.param(OrderedSetPartition, ([[1], [2]],), (((1,), (2,)),),
                     (((1.0,), (2,)),), id="face"),
        pytest.param(ChainExpression, ([2, 1], [GEQ]), ((2, 1), (GEQ,)),
                     ((2.0, 1), (GEQ,)), id="expression"),
        pytest.param(Surjection, ([1, 2, 1],), ((1, 2, 1),), ((1.0, 2),), id="surjection"),
        pytest.param(LatticePoint, ([1, 0], 2), ((1, 0), 2), ((0.5, 0), 2), id="point"),
        pytest.param(OrderedSetPartition, ([[1], [2]],), (((1,), (2,)),),
                     (((True,), (2,)),), id="face-bool"),
        pytest.param(ChainExpression, ([2, 1], [GEQ]), ((2, 1), (GEQ,)),
                     ((2, True), (GEQ,)), id="expression-bool"),
        pytest.param(Surjection, ([1, 2, 1],), ((1, 2, 1),), ((True, 2),), id="surjection-bool"),
        pytest.param(LatticePoint, ([1, 0], 2), ((1, 0), 2), ((True, False), 2),
                     id="point-bool"),
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
        with pytest.raises(DomainError):
            LatticePoint((1, 0), 2)._replace(side=1)

    def test_dict_keyed_by_faces_misses_bare_tuples(self):
        faces = enumerate_facets(4, 1)
        by_face = dict.fromkeys(faces)
        by_tuple = dict.fromkeys(tuple(f) for f in faces)
        for face in faces:
            assert OrderedSetPartition(face.blocks) in by_face
            assert tuple(face) not in by_face
            assert face not in by_tuple


class TestChainExpression:
    def test_validates_permutation(self):
        with pytest.raises(DomainError):
            ChainExpression((1, 1), (GEQ,))

    def test_validates_relation_count(self):
        with pytest.raises(DomainError):
            ChainExpression((1, 2), ())

    def test_validates_relation_symbols(self):
        with pytest.raises(DomainError):
            ChainExpression((1, 2), ("<",))

    def test_text(self):
        e = ChainExpression((2, 1, 3), (EQ, GEQ))
        assert e.text() == "x2=x1>=x3"


class TestEnumerateChainExpressions:
    def test_p2_no_equalities(self):
        exprs = list(enumerate_chain_expressions(2, 0))
        assert [e.text() for e in exprs] == ["x1>=x2", "x2>=x1"]

    def test_p2_one_equality(self):
        exprs = list(enumerate_chain_expressions(2, 1))
        assert [e.text() for e in exprs] == ["x1=x2", "x2=x1"]

    def test_counts(self):
        assert sum(1 for _ in enumerate_chain_expressions(3, 1)) == 12
        for p in range(1, 6):
            for l in range(p):
                count = sum(1 for _ in enumerate_chain_expressions(p, l))
                assert count == factorial(p) * comb(p - 1, l)

    def test_lexicographic_order_and_uniqueness(self):
        exprs = [
            (e.sigma, e.relations) for e in enumerate_chain_expressions(4, 2)
        ]
        assert exprs == sorted(set(exprs))

    def test_budget_error_names_cap(self):
        with pytest.raises(BudgetExceededError, match="cap"):
            enumerate_chain_expressions(5, 2, max_expressions=10)

    def test_generated_expressions_skip_validation_and_pass_it(self, count_validations):
        validated = count_validations(ChainExpression)
        for p in range(1, 6):
            for l in range(p):
                exprs = list(enumerate_chain_expressions(p, l))
                assert validated == []
                for e in exprs:
                    assert type(e) is ChainExpression
                    rebuilt = ChainExpression(e.sigma, e.relations)
                    assert rebuilt == e and not rebuilt != e and hash(rebuilt) == hash(e)
                    assert e != tuple(e)
                assert len(validated) == len(exprs)
                validated.clear()
        ChainExpression((1,), ())
        assert len(validated) == 1

    def test_rejects_bad_codimension(self):
        with pytest.raises(DomainError):
            enumerate_chain_expressions(3, 3)

    @pytest.mark.parametrize("p,l", [(True, 0), (2.0, 0), (2, True), (2, 1.0)])
    def test_rejects_dimension_or_codimension_not_an_integer(self, p, l):
        for generate in (enumerate_facets, enumerate_chain_expressions):
            with pytest.raises(DomainError, match="must be an integer"):
                generate(p, l)


class TestCanonicalize:
    def test_equality_run_is_sorted(self):
        e = ChainExpression((2, 1, 3), (EQ, GEQ))
        assert canonicalize(e).blocks == ((1, 2), (3,))

    def test_no_equalities_gives_singletons(self):
        e = ChainExpression((1, 2, 3), (GEQ, GEQ))
        assert canonicalize(e).blocks == ((1,), (2,), (3,))

    def test_single_block(self):
        e = ChainExpression((3, 2, 1), (EQ, EQ))
        assert canonicalize(e).blocks == ((1, 2, 3),)

    def test_block_count(self):
        for p in range(1, 6):
            for l in range(p):
                for e in enumerate_chain_expressions(p, l):
                    assert canonicalize(e).num_blocks == p - l


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
                for face, count in facet_multiplicities(p, l).items():
                    expected = 1
                    for block in face.blocks:
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
            collapsed = sorted(facet_multiplicities(p, l), key=lambda f: f.blocks)
            assert enumerate_facets(p, l) == collapsed

    def test_collapse_still_validates_every_face(self, count_validations):
        validated = count_validations(OrderedSetPartition)
        for l in range(5):
            multiplicities = facet_multiplicities(5, l)
            assert len(validated) == sum(multiplicities.values())
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
                    assert face != tuple(face)
                assert len(validated) == len(faces)
                validated.clear()

    def test_expression_cap_checked_before_any_face(self):
        required = factorial(6) * comb(5, 2)
        with pytest.raises(BudgetExceededError, match=r"\(p=6, l=2\)"):
            enumerate_facets(6, 2, max_expressions=required - 1)
        assert len(enumerate_facets(6, 2, max_expressions=required)) == facet_count(6, 2)


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
        assert facet_to_surjection(OrderedSetPartition(((1, 2), (3,)))).map == (1, 1, 2)
        assert facet_to_surjection(OrderedSetPartition(((1,), (2,), (3,)))).map == (1, 2, 3)
        assert facet_to_surjection(OrderedSetPartition(((3,), (1, 2)))).map == (2, 2, 1)

    def test_surjection_to_facet_examples(self):
        assert surjection_to_facet(Surjection((1, 1, 2))).blocks == ((1, 2), (3,))
        assert surjection_to_facet(Surjection((1, 2, 3))).blocks == ((1,), (2,), (3,))
        assert surjection_to_facet(Surjection((2, 1, 2))).blocks == ((2,), (1, 3))

    def test_surjection_validates(self):
        with pytest.raises(DomainError):
            Surjection((1, 3))  # skips 2
        with pytest.raises(DomainError):
            Surjection(())

    def test_round_trip_both_ways(self):
        for p in range(1, 6):
            for l in range(p):
                for face in enumerate_facets(p, l):
                    assert surjection_to_facet(facet_to_surjection(face)) == face
                for values in brute_surjections(p, p - l):
                    s = Surjection(values)
                    assert facet_to_surjection(surjection_to_facet(s)) == s
