from itertools import chain, product
from math import comb, factorial

import pytest

from figulat.combinatorics import facet_count
from figulat import errors
from figulat.errors import BudgetExceededError, DomainError, check_expressions
from figulat.facets import (
    DEFAULT_MAX_EXPRESSIONS,
    OrderedSetPartition,
    _block_sequences,
    enumerate_facets,
    facet_to_surjection,
    iter_facets,
)
from figulat.oracles import oracle_collapsed_faces, oracle_surjection_to_facet
from figulat.verifier import LTerm, SkippedCell, VerificationReport, verify_geometric


def brute_surjections(m, k):
    return [
        values
        for values in product(range(1, k + 1), repeat=m)
        if set(values) == set(range(1, k + 1))
    ]


# One value of each value type.
each_value_type = pytest.mark.parametrize("value", [
    pytest.param(OrderedSetPartition(((1, 2), (3,))), id="face"),
    pytest.param(LTerm(1, 6, 3, -18), id="term"),
    pytest.param(VerificationReport(2, 3, 9, "algebraic", 9, (LTerm(0, 2, 10, 20),), True),
                 id="report"),
    pytest.param(SkippedCell(9, 1, "geometric", "over the cap"), id="skipped"),
])


@each_value_type
def test_value_equals_and_hashes_like_its_bare_tuple(value):
    """Every value type is a plain named tuple: no face or report is told
    apart from its fields by its type."""
    bare = tuple(value)
    assert value == bare and bare == value and not value != bare and not bare != value
    assert hash(value) == hash(bare)
    if isinstance(value, VerificationReport):
        assert bare[7:] == (0, None)  # seven fields given, the two defaults filled in


@each_value_type
def test_make_and_replace_rebuild_the_value_of_its_type(value):
    """`_make`, `_replace` and a call with the fields are the named
    tuple's own, and each gives back a value of the same type."""
    cls = type(value)
    for rebuilt in (cls._make(value), value._replace(), cls(*value)):
        assert type(rebuilt) is cls and rebuilt == value and hash(rebuilt) == hash(value)
    replaced = value._replace(**{cls._fields[0]: "new"})
    assert type(replaced) is cls and replaced == ("new", *value[1:])


def is_ordered_set_partition(blocks, p):
    """True when `blocks` is a nonempty tuple of nonempty, strictly
    ascending tuples of ints that hold each of 1..p exactly once."""
    indices = [i for block in blocks for i in block]
    return (type(blocks) is tuple and len(blocks) > 0 and all(type(i) is int for i in indices)
            and all(type(b) is tuple and b and list(b) == sorted(set(b)) for b in blocks)
            and sorted(indices) == list(range(1, p + 1)))


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
                    # A plain tuple: the oracle builds no value of the package.
                    assert type(blocks) is tuple
                    assert len(blocks) == p - l
                    assert all(list(block) == sorted(block) for block in blocks)


class TestOrderedSetPartition:
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
                sequences = list(chain.from_iterable(_block_sequences(tuple(range(1, p + 1)), k)))
                assert sequences == sorted(sequences)

    @pytest.mark.parametrize("p", range(1, 8))
    def test_direct_generation_matches_chain_expression_collapse(self, p):
        for l in range(p):
            collapsed = sorted(oracle_collapsed_faces(p, l))
            faces = enumerate_facets(p, l)
            assert [face.blocks for face in faces] == collapsed
            assert list(iter_facets(p, l)) == faces
            for face in faces:
                assert type(face) is OrderedSetPartition and face.num_blocks == p - l

    @pytest.mark.parametrize("p", range(1, 8))
    def test_every_face_is_an_ordered_set_partition_of_1_to_p(self, p):
        # Checked by a predicate of its own, not against the oracle, so a
        # fault that the generator and the oracle shared would show here.
        for l in range(p):
            for face in iter_facets(p, l):
                assert is_ordered_set_partition(face.blocks, p), face

    def test_expression_cap_checked_before_any_face(self):
        # The stream checks when it is called, before it yields anything.
        required = factorial(6) * comb(5, 2)
        for build in (enumerate_facets, iter_facets):
            with pytest.raises(BudgetExceededError, match=r"\(p=6, l=2\)"):
                build(6, 2, max_expressions=required - 1)
            assert len(list(build(6, 2, max_expressions=required))) == facet_count(6, 2)

    def test_a_need_too_long_to_print_is_refused_by_its_size(self):
        # factorial(2000) has 5,736 digits, more than an int prints by default.
        with pytest.raises(BudgetExceededError) as refused:
            enumerate_facets(2000, 0)
        assert refused.value.required == factorial(2000)
        assert str(refused.value).endswith(
            f"needs at least 2^{factorial(2000).bit_length() - 1}, budget is "
            f"{DEFAULT_MAX_EXPRESSIONS}")

    def test_a_huge_need_of_an_inner_codimension_states_its_size(self):
        need = factorial(2000) * comb(1999, 1000)
        with pytest.raises(BudgetExceededError,
                           match=rf"\(p=2000, l=1000\).*needs at least 2\^{need.bit_length() - 1},"
                           ) as refused:
            iter_facets(2000, 1000)
        assert refused.value.required == need

    @pytest.mark.parametrize("p,l", [(True, 0), (2.0, 0), (2, True), (2, 1.0)])
    def test_rejects_dimension_or_codimension_not_an_integer(self, p, l):
        for build in (enumerate_facets, iter_facets):
            with pytest.raises(DomainError, match="must be an integer"):
                build(p, l)

    def test_rejects_bad_codimension(self):
        for build in (enumerate_facets, iter_facets):
            with pytest.raises(DomainError, match=r"^codimension must satisfy .*l=3 for p=3$"):
                build(3, 3)

    @pytest.mark.parametrize("cap", [True, 0, -5, 2.0, "x", None])
    def test_rejects_a_cap_that_is_not_a_positive_integer(self, cap):
        for check in (lambda: enumerate_facets(3, 1, max_expressions=cap),
                      lambda: iter_facets(3, 1, max_expressions=cap),
                      lambda: check_expressions(3, cap)):
            with pytest.raises(DomainError, match="^expression cap must be an integer >= 1"):
                check()


class TestCheckEveryCodimension:
    def test_reports_the_first_codimension_over_the_cap(self):
        # p=5 needs 120, 480, 720, 480 and 120 expressions for l = 0..4.
        with pytest.raises(BudgetExceededError, match=r"\(p=5, l=0\).*needs 120, budget is 119"):
            check_expressions(5, 119)
        with pytest.raises(BudgetExceededError, match=r"\(p=5, l=2\).*needs 720, budget is 719"):
            check_expressions(5, 719)
        check_expressions(5, 720)

    def test_refuses_a_bad_cap_before_computing_any_need(self, monkeypatch):
        # At p = 10^6 the factorial alone would take seconds.
        def refuse(p):
            raise AssertionError("a need was computed")
        monkeypatch.setattr(errors, "factorial", refuse)
        for check in (lambda: check_expressions(10 ** 6, 0),
                      lambda: iter_facets(10 ** 6, 0, True),
                      lambda: verify_geometric(10 ** 6, 1, max_expressions=0)):
            with pytest.raises(DomainError, match="^expression cap must be an integer >= 1"):
                check()

    @pytest.mark.parametrize("p", [0, -3, True, 2.0])
    def test_rejects_bad_dimension(self, p):
        for check in (lambda: check_expressions(p, 1), lambda: iter_facets(p, 0)):
            with pytest.raises(DomainError, match="^dimension must be "):
                check()


class TestSurjectionBijection:
    def test_facet_to_surjection_examples(self):
        assert facet_to_surjection(OrderedSetPartition(((1, 2), (3,)))) == (1, 1, 2)
        assert facet_to_surjection(OrderedSetPartition(((1,), (2,), (3,)))) == (1, 2, 3)
        assert facet_to_surjection(OrderedSetPartition(((3,), (1, 2)))) == (2, 2, 1)

    @pytest.mark.parametrize("blocks", [
        ((1,), (1,)), ((1,), (3,)), ((0,), (1,)), ((1,), (-1,)), ((1.0,), (2,)), (("1",), (2,)),
        ((1,), (), (2,)),
    ], ids=["repeated", "missing", "zero", "negative", "float", "text", "empty-block"])
    def test_facet_to_surjection_refuses_a_malformed_face(self, blocks):
        with pytest.raises(DomainError, match=r"^face blocks must be nonempty and hold each of 1\.\.p"):
            facet_to_surjection(OrderedSetPartition(blocks))

    def test_round_trip_both_ways(self):
        for p in range(1, 6):
            for l in range(p):
                for face in enumerate_facets(p, l):
                    assert oracle_surjection_to_facet(facet_to_surjection(face)) == face.blocks
                for values in brute_surjections(p, p - l):
                    face = OrderedSetPartition(oracle_surjection_to_facet(values))
                    assert facet_to_surjection(face) == values
