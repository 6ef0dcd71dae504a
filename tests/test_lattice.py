import gc
import inspect
import sys
from collections import Counter, defaultdict
from itertools import product
from math import comb

import pytest

from figulat import lattice
from figulat.combinatorics import surjection_count
from figulat.errors import BudgetExceededError, DomainError
from figulat.facets import DEFAULT_MAX_EXPRESSIONS, OrderedSetPartition, enumerate_facets
from figulat.lattice import (
    LatticePoint,
    count_lattice_points,
    cube_points,
    enumerate_points,
    facet_contains,
    point_multiplicity,
)
from figulat.verifier import verify_pointwise


def pt(coords, n):
    return LatticePoint(tuple(coords), n)


def faces_by_codimension(p):
    """Every face of the p-cube, by codimension, in `_face_index` order."""
    return tuple(tuple(enumerate_facets(p, l)) for l in range(p))


def signed_count(faces_by_l, q):
    """Signed cover multiplicity counted with facet_contains, uncached."""
    return sum(
        (-1) ** l * sum(1 for f in faces if facet_contains(f, q))
        for l, faces in enumerate(faces_by_l)
    )


def scan_cube(f, p, n):
    """Membership by scanning every cube point."""
    return [
        coords
        for coords in product(range(n), repeat=p)
        if facet_contains(f, pt(coords, n))
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

    def test_accepts_both_ends_of_the_range(self):
        assert pt((0, 4, 2), 5).coords == (0, 4, 2)
        assert pt((0,), 1).coords == (0,)

    def test_accepts_no_coordinates(self):
        assert pt((), 1).coords == ()

    def test_text(self):
        assert pt((1, 0, 2), 3).text() == "1,0,2"


class TestFacetContains:
    def test_weakly_decreasing(self):
        f = OrderedSetPartition(((1,), (2,)))
        assert facet_contains(f, pt((1, 0), 2))
        assert facet_contains(f, pt((1, 1), 2))
        assert not facet_contains(f, pt((0, 1), 2))

    def test_equality_block(self):
        f = OrderedSetPartition(((1, 2),))
        assert not facet_contains(f, pt((1, 0), 2))
        assert facet_contains(f, pt((1, 1), 2))

    def test_dimension_mismatch(self):
        f = OrderedSetPartition(((1, 2),))
        with pytest.raises(DomainError):
            facet_contains(f, pt((1, 0, 0), 2))


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
                            assert rebuilt == q and hash(rebuilt) == hash(q)
                        assert len(validated) == len(points)
                        validated.clear()

    def test_walk_depth_does_not_grow_with_blocks(self):
        k = sys.getrecursionlimit() + 10
        f = OrderedSetPartition(tuple((i,) for i in range(1, k + 1)))
        assert [q.coords for q in enumerate_points(f, 1)] == [(0,) * k]

    def test_budget(self):
        f = OrderedSetPartition(((1,), (2,), (3,)))
        with pytest.raises(BudgetExceededError):
            enumerate_points(f, 100, max_points=10)


class TestCountLatticePoints:
    def test_examples(self):
        assert count_lattice_points(OrderedSetPartition(((1,), (2,))), 2) == 3
        assert count_lattice_points(OrderedSetPartition(((1, 2, 3),)), 5) == 5
        assert count_lattice_points(OrderedSetPartition(((1,), (2,), (3,))), 2) == 4

    def test_matches_enumeration(self):
        for p in range(1, 5):
            for l in range(p):
                for f in enumerate_facets(p, l):
                    for n in range(1, 5):
                        assert count_lattice_points(f, n) == sum(
                            1 for _ in enumerate_points(f, n)
                        )

    def test_uniform_over_same_block_count(self):
        for l in range(4):
            counts = {count_lattice_points(f, 3) for f in enumerate_facets(4, l)}
            assert len(counts) == 1


class TestCubePoints:
    def test_lexicographic_and_complete(self):
        points = [q.coords for q in cube_points(2, 3)]
        assert points == sorted(product(range(3), repeat=2))

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            cube_points(8, 10, max_points=10 ** 6)

    def test_is_a_generator(self):
        assert inspect.isgenerator(cube_points(2, 2))

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
                    assert rebuilt == q and hash(rebuilt) == hash(q)
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
        assert point_multiplicity(pt((1, 0), 2), 2) == 1
        assert point_multiplicity(pt((1, 1), 2), 2) == 1

    def test_origin(self):
        for p in range(1, 5):
            assert point_multiplicity(pt((0,) * p, 1), p) == 1

    def test_always_one(self):
        for p in range(1, 5):
            for n in range(1, 5):
                for q in cube_points(p, n):
                    assert point_multiplicity(q, p) == 1

    def test_every_point_in_a_top_face(self):
        for p in range(1, 5):
            top = enumerate_facets(p, 0)
            for q in cube_points(p, 3):
                assert any(facet_contains(f, q) for f in top)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            point_multiplicity(pt((0, 0), 2), 3)

    def test_rejects_dimension_zero(self):
        with pytest.raises(DomainError):
            point_multiplicity(pt((), 1), 0)


class TestFaceRelationIndex:
    def test_relation_test_matches_facet_contains(self):
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
                        assert (bits & ~kind == 0) == facet_contains(f, q)

    def test_multiplicity_matches_uncached_count_at_p6(self):
        faces = faces_by_codimension(6)
        for coords in [(0,) * 6, (2, 1, 0, 2, 1, 0), (0, 1, 2, 2, 1, 0),
                       (1, 1, 0, 0, 2, 2), (2, 2, 2, 2, 2, 1), (0, 3, 1, 3, 2, 0)]:
            q = pt(coords, 4)
            assert point_multiplicity(q, 6) == signed_count(faces, q) == 1

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
                    k: surjection_count(p, k) for k in range(1, min(p, n) + 1)
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

    def test_pointwise_cell_keeps_no_face_objects(self):
        def live_faces():
            gc.collect()
            return sum(isinstance(o, OrderedSetPartition) for o in gc.get_objects())

        # A p=1 cell first, so no cache still holds faces of a larger p.
        assert verify_pointwise(1, 1).ok is True
        before = live_faces()
        assert verify_pointwise(6, 2).ok is True
        assert live_faces() <= before

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
            assert point_multiplicity(pt((1, 0, 1), 2), 3) == 1
            assert caps == [DEFAULT_MAX_EXPRESSIONS] * 3
        finally:
            lattice._face_index.cache_clear()
