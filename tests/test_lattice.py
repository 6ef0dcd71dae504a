import inspect
import sys
from collections import Counter, defaultdict
from itertools import product
from math import comb

import pytest

from figulat import lattice
from figulat.combinatorics import facet_count, figurate
from figulat.errors import BudgetExceededError, DomainError
from figulat.facets import DEFAULT_MAX_EXPRESSIONS, OrderedSetPartition, enumerate_facets
from figulat.lattice import LatticePoint, cube_points, enumerate_points, point_multiplicity
from figulat.oracles import oracle_facet_contains
from figulat.verifier import verify_geometric, verify_pointwise


def pt(coords, n):
    return LatticePoint(tuple(coords), n)


def point_count(face, n):
    return sum(1 for _ in enumerate_points(face, n))


def side_error(side):
    """The message `LatticePoint` rejects `side` with."""
    with pytest.raises(DomainError) as raised:
        LatticePoint((0,), side)
    return str(raised.value)


def faces_by_codimension(p):
    """Every face of the p-cube, by codimension, in `_face_index` order."""
    return tuple(tuple(enumerate_facets(p, l)) for l in range(p))


def signed_count(faces_by_l, q):
    """Signed cover multiplicity counted with the membership oracle, uncached."""
    return sum(
        (-1) ** l * sum(1 for f in faces if oracle_facet_contains(f.blocks, q.coords))
        for l, faces in enumerate(faces_by_l)
    )


def scan_cube(f, p, n):
    """Membership by scanning every cube point."""
    return [
        coords
        for coords in product(range(n), repeat=p)
        if oracle_facet_contains(f.blocks, coords)
    ]


class TestLatticePoint:
    def test_validates_range(self):
        with pytest.raises(DomainError):
            pt((0, 2), 2)
        with pytest.raises(DomainError):
            pt((-1,), 3)

    def test_rejects_side_zero(self):
        with pytest.raises(DomainError):
            pt((), 0)

    def test_rejects_a_side_that_is_not_an_integer(self):
        for side in (1.5, True, False):
            with pytest.raises(DomainError, match="integer"):
                LatticePoint((0,), side)

    def test_accepts_both_ends_of_the_range(self):
        assert pt((0, 4, 2), 5).coords == (0, 4, 2)
        assert pt((0,), 1).coords == (0,)

    def test_accepts_no_coordinates(self):
        assert pt((), 1).coords == ()

    def test_text(self):
        assert pt((1, 0, 2), 3).text() == "1,0,2"


class TestEnumeratePoints:
    def test_diagonal(self):
        f = OrderedSetPartition(((1, 2),))
        points = [p.coords for p in enumerate_points(f, 2)]
        assert points == [(0, 0), (1, 1)]

    def test_half_square(self):
        f = OrderedSetPartition(((1,), (2,)))
        points = [p.coords for p in enumerate_points(f, 2)]
        assert points == [(0, 0), (1, 0), (1, 1)]

    def test_side_one(self):
        f = OrderedSetPartition(((1,), (2, 3)))
        assert [p.coords for p in enumerate_points(f, 1)] == [(0, 0, 0)]

    def test_matches_cube_scan(self):
        for p in range(1, 5):
            for l in range(p):
                for f in enumerate_facets(p, l):
                    for n in range(1, 5):
                        enumerated = [q.coords for q in enumerate_points(f, n)]
                        assert sorted(enumerated) == sorted(scan_cube(f, p, n))
                        assert len(enumerated) == len(set(enumerated))

    def test_multiset_order_on_every_small_face(self):
        """The points are the weakly increasing value tuples, in sorted
        order, value j spread over the j-th block from the last
        (p <= 5, n <= 5)."""
        for p in range(1, 6):
            for l in range(p):
                for f in enumerate_facets(p, l):
                    for n in range(1, 6):
                        expected = []
                        for values in product(range(n), repeat=f.num_blocks):
                            if list(values) != sorted(values):
                                continue
                            coords = [None] * p
                            for value, block in zip(values, reversed(f.blocks)):
                                for idx in block:
                                    coords[idx - 1] = value
                            expected.append(tuple(coords))
                        got = [q.coords for q in enumerate_points(f, n)]
                        assert got == expected

    def test_generated_points_skip_validation_and_pass_it(self, count_validations):
        validated = count_validations(LatticePoint)
        for p in range(1, 6):
            for l in range(p):
                for f in enumerate_facets(p, l):
                    for n in range(1, 5):
                        points = list(enumerate_points(f, n))
                        assert validated == []
                        for q in points:
                            assert type(q) is LatticePoint
                            rebuilt = LatticePoint(q.coords, q.side)
                            assert rebuilt == q and not rebuilt != q and hash(rebuilt) == hash(q)
                            assert q != tuple(q)
                        assert len(validated) == len(points)
                        validated.clear()

    def test_face_with_more_blocks_than_the_recursion_limit(self):
        k = sys.getrecursionlimit() + 10
        f = OrderedSetPartition(tuple((i,) for i in range(1, k + 1)))
        assert [q.coords for q in enumerate_points(f, 1)] == [(0,) * k]

    def test_budget(self):
        f = OrderedSetPartition(((1,), (2,), (3,)))
        with pytest.raises(BudgetExceededError):
            enumerate_points(f, 100, max_points=10)

    @pytest.mark.parametrize("cap", [True, 0, -5, 2.0, "x", None])
    def test_rejects_a_cap_that_is_not_a_positive_integer(self, cap):
        with pytest.raises(DomainError, match="^point cap must be an integer >= 1"):
            enumerate_points(OrderedSetPartition(((1,),)), 2, max_points=cap)

    def test_rejects_side_zero(self):
        for side in (0, True, 2.0):
            with pytest.raises(DomainError) as raised:
                enumerate_points(OrderedSetPartition(((1,),)), side)
            assert str(raised.value) == side_error(side)


class TestFacePointCounts:
    """How many points a face yields. A face with k blocks holds
    figurate(k, n) of them: a check made here, never a call in `lattice`."""

    def test_examples(self):
        assert point_count(OrderedSetPartition(((1,), (2,))), 2) == 3
        assert point_count(OrderedSetPartition(((1, 2, 3),)), 5) == 5
        assert point_count(OrderedSetPartition(((1,), (2,), (3,))), 2) == 4

    def test_matches_enumeration(self):
        for p in range(1, 5):
            for l in range(p):
                for f in enumerate_facets(p, l):
                    for n in range(1, 5):
                        assert figurate(f.num_blocks, n) == point_count(f, n)

    def test_uniform_over_same_block_count(self):
        # The geometric route reads per_facet_points from the first face of
        # each codimension only; every other face must yield as many.
        for p in range(1, 6):
            for n in range(1, 4):
                terms = verify_geometric(p, n).per_l_terms
                for l in range(p):
                    counts = {point_count(f, n) for f in enumerate_facets(p, l)}
                    assert counts == {terms[l].per_facet_points}


class TestCubePoints:
    def test_lexicographic_and_complete(self):
        points = [q.coords for q in cube_points(2, 3)]
        assert points == sorted(product(range(3), repeat=2))

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            cube_points(8, 10, max_points=10 ** 6)

    def test_a_need_too_long_to_print_is_refused_by_its_size(self):
        with pytest.raises(BudgetExceededError) as refused:
            cube_points(5000, 10)
        assert refused.value.required == 10 ** 5000
        assert f"needs at least 2^{(10 ** 5000).bit_length() - 1}," in str(refused.value)

    @pytest.mark.parametrize("cap", [True, 0, -5, 2.0, "x", None])
    def test_rejects_a_cap_that_is_not_a_positive_integer(self, cap):
        with pytest.raises(DomainError, match="^point cap must be an integer >= 1"):
            cube_points(2, 2, max_points=cap)

    def test_is_a_generator(self):
        assert inspect.isgenerator(cube_points(2, 2))

    @pytest.mark.parametrize("p,n", [
        (0, 1), (1, 0), (2, True), (2, 2.0), (True, 2), (2.0, 2),
    ])
    def test_rejects_dimension_or_side_zero(self, p, n):
        with pytest.raises(DomainError) as raised:
            cube_points(p, n)
        if type(p) is int and p >= 1:
            assert str(raised.value) == side_error(n)

    def test_generated_points_skip_validation_and_pass_it(self, count_validations):
        validated = count_validations(LatticePoint)
        for p in range(1, 11):
            for n in range(1, 5):
                if n ** p > 1024:
                    continue
                points = list(cube_points(p, n))
                assert validated == []
                for q in points:
                    assert type(q) is LatticePoint
                    rebuilt = LatticePoint(q.coords, q.side)
                    assert rebuilt == q and not rebuilt != q and hash(rebuilt) == hash(q)
                    assert q != tuple(q)
                assert len(validated) == len(points)
                validated.clear()


def test_generators_skip_both_validators(count_validations):
    faces = count_validations(OrderedSetPartition)
    points = count_validations(LatticePoint)
    for l in range(6):
        for f in enumerate_facets(6, l):
            for _ in enumerate_points(f, 2):
                pass
    for _ in cube_points(6, 2):
        pass
    assert (len(faces), len(points)) == (0, 0)
    OrderedSetPartition(((1,),))
    LatticePoint((0,), 1)
    assert (len(faces), len(points)) == (1, 1)


class TestPointMultiplicity:
    def test_hand_checked_pairs(self):
        assert point_multiplicity(pt((1, 0), 2)) == 1
        assert point_multiplicity(pt((1, 1), 2)) == 1

    def test_origin(self):
        for p in range(1, 5):
            assert point_multiplicity(pt((0,) * p, 1)) == 1

    def test_always_one(self):
        for p in range(1, 5):
            for n in range(1, 5):
                for q in cube_points(p, n):
                    assert point_multiplicity(q) == 1

    def test_every_point_in_a_top_face(self):
        for p in range(1, 5):
            top = enumerate_facets(p, 0)
            for q in cube_points(p, 3):
                assert any(oracle_facet_contains(f.blocks, q.coords) for f in top)

    def test_rejects_dimension_zero(self):
        with pytest.raises(DomainError, match=r"^dimension must be >= 1, got p=0$"):
            point_multiplicity(pt((), 1))

    def test_a_bool_cap_is_refused_after_its_int_twin_is_cached(self):
        # True == 1 and hashes alike, so the face index is cached by type.
        assert point_multiplicity(pt((0,), 1), max_expressions=1) == 1
        with pytest.raises(DomainError, match="^expression cap must be an integer >= 1"):
            point_multiplicity(pt((0,), 1), max_expressions=True)

    def test_expression_cap_is_keyword_only(self):
        # A caller that still passes p must not have it taken as the cap.
        with pytest.raises(TypeError):
            point_multiplicity(pt((1, 0), 2), 2)


class TestFaceRelationIndex:
    def test_relation_test_matches_the_membership_oracle(self):
        for p in range(1, 6):
            faces = lattice._face_index(p, DEFAULT_MAX_EXPRESSIONS)
            pairs = list(zip(
                (f for by_l in faces_by_codimension(p) for f in by_l),
                (bits for by_l in faces for bits in by_l),
            ))
            assert len(pairs) == sum(map(len, faces))
            for n in range(1, 4):
                for q in cube_points(p, n):
                    kind = lattice._weak_order(q.coords)
                    for f, bits in pairs:
                        assert (bits & ~kind == 0) == oracle_facet_contains(f.blocks, q.coords)

    def test_multiplicity_matches_uncached_count_at_p6(self):
        faces = faces_by_codimension(6)
        for coords in [(0,) * 6, (2, 1, 0, 2, 1, 0), (0, 1, 2, 2, 1, 0),
                       (1, 1, 0, 0, 2, 2), (2, 2, 2, 2, 2, 1), (0, 3, 1, 3, 2, 0)]:
            q = pt(coords, 4)
            assert point_multiplicity(q) == signed_count(faces, q) == 1

    def test_types_are_exactly_weak_orders(self):
        """Points of side n group by relation into types with k distinct
        values, C(n, k) points each, and k! * S(p, k) such types."""
        for p in range(1, 6):
            for n in range(1, 5):
                groups = defaultdict(list)
                for q in cube_points(p, n):
                    groups[lattice._weak_order(q.coords)].append(q.coords)
                types_by_k = Counter()
                for members in groups.values():
                    (k,) = {len(set(coords)) for coords in members}
                    assert len(members) == comb(n, k)
                    types_by_k[k] += 1
                assert types_by_k == {
                    k: facet_count(p, p - k) for k in range(1, min(p, n) + 1)
                }

    def test_missing_face_is_reported_at_the_first_wrong_point(self, monkeypatch):
        real = lattice.enumerate_facets
        broken = list(faces_by_codimension(4))
        broken[2] = broken[2][1:]
        broken = tuple(broken)
        monkeypatch.setattr(
            lattice, "enumerate_facets",
            lambda p, l, cap: list(broken[l]) if p == 4 else real(p, l, cap),
        )
        lattice._face_index.cache_clear()
        try:
            report = verify_pointwise(4, 3)
            counts = [(q.coords, signed_count(broken, q)) for q in cube_points(4, 3)]
            assert report.ok is False
            assert report.first_failure == next(c for c, m in counts if m != 1)
            assert report.rhs == sum(m for _, m in counts)

            assert verify_pointwise(5, 3).ok is True
            assert verify_pointwise(4, 2).ok is False
            assert lattice._face_index.cache_info().currsize == 1
        finally:
            lattice._face_index.cache_clear()

    def test_pointwise_cell_keeps_no_face_objects(self, live_objects):
        # A p=1 cell first, so no cache still holds faces of a larger p.
        assert verify_pointwise(1, 1).ok is True
        before = len(live_objects(OrderedSetPartition))
        assert verify_pointwise(6, 2).ok is True
        assert len(live_objects(OrderedSetPartition)) <= before

    def test_every_expression_cap_is_checked_before_any_face(self, monkeypatch):
        # p=5 needs 120, 480 and 720 expressions for l = 0, 1, 2.
        def refuse(*args):
            raise AssertionError("enumerate_facets was called")
        monkeypatch.setattr(lattice, "enumerate_facets", refuse)
        lattice._face_index.cache_clear()
        try:
            with pytest.raises(BudgetExceededError,
                               match=r"\(p=5, l=2\).*needs 720, budget is 500"):
                point_multiplicity(pt((0,) * 5, 1), max_expressions=500)
        finally:
            lattice._face_index.cache_clear()

    def test_face_index_receives_the_pointwise_expression_cap(self, monkeypatch):
        caps = []
        real = lattice.enumerate_facets

        def spy(p, l, max_expressions):
            caps.append(max_expressions)
            return real(p, l, max_expressions)

        monkeypatch.setattr(lattice, "enumerate_facets", spy)
        lattice._face_index.cache_clear()
        try:
            raised = 2 * DEFAULT_MAX_EXPRESSIONS
            assert verify_pointwise(3, 2, max_expressions=raised).ok is True
            assert caps == [raised] * 3
            caps.clear()
            assert point_multiplicity(pt((1, 0, 1), 2)) == 1
            assert caps == [DEFAULT_MAX_EXPRESSIONS] * 3
        finally:
            lattice._face_index.cache_clear()
