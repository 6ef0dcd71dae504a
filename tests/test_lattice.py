import sys
from collections import Counter, defaultdict
from itertools import accumulate, compress, product
from math import comb, log2

import pytest

from figulat import lattice
from figulat.combinatorics import facet_count, figurate
from figulat.errors import BudgetExceededError, DomainError, check_need
from figulat.facets import (
    DEFAULT_MAX_EXPRESSIONS, OrderedSetPartition, enumerate_facets, facet_to_surjection,
)
from figulat.lattice import cube_points, enumerate_points, point_multiplicity
from figulat.oracles import oracle_facet_contains
from figulat.verifier import verify_geometric, verify_pointwise


def point_count(face, n):
    return sum(1 for _ in enumerate_points(face, n))


def side_error(side):
    """The message the point generators reject `side` with."""
    if type(side) is not int:
        return f"side must be an integer, got {side!r}"
    return f"side must be >= 1, got {side}"


def faces_by_codimension(p):
    """Every face of the p-cube, by codimension, in `_face_index` order."""
    return tuple(tuple(enumerate_facets(p, l)) for l in range(p))


def forced(face):
    """The relations the face forces: entry a*p + b is True iff the face
    forces x_{a+1} >= x_{b+1}, that is iff a+1's block is b+1's or an
    earlier one."""
    s = facet_to_surjection(face)
    return [sa <= sb for sa in s for sb in s]


def signed_count(faces_by_l, q):
    """Signed cover multiplicity counted with the membership oracle, uncached."""
    return sum(
        (-1) ** l * sum(1 for f in faces if oracle_facet_contains(f.blocks, q))
        for l, faces in enumerate(faces_by_l)
    )


def scan_cube(f, p, n):
    """Membership by scanning every cube point."""
    return [
        coords
        for coords in product(range(n), repeat=p)
        if oracle_facet_contains(f.blocks, coords)
    ]


class TestEnumeratePoints:
    def test_side_one(self):
        f = OrderedSetPartition(((1,), (2, 3)))
        assert list(enumerate_points(f, 1)) == [(0, 0, 0)]

    def test_matches_cube_scan(self):
        for p in range(1, 5):
            for l in range(p):
                for f in enumerate_facets(p, l):
                    for n in range(1, 5):
                        enumerated = list(enumerate_points(f, n))
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
                        got = list(enumerate_points(f, n))
                        assert got == expected

    def test_generated_points_are_coordinate_tuples_in_range(self):
        for p in range(1, 6):
            for l in range(p):
                for f in enumerate_facets(p, l):
                    for n in range(1, 5):
                        for q in enumerate_points(f, n):
                            assert type(q) is tuple and len(q) == p
                            assert all(type(c) is int and 0 <= c < n for c in q)

    def test_points_are_found_among_the_cube_points_by_value(self):
        cube = set(cube_points(4, 3))
        for l in range(4):
            for f in enumerate_facets(4, l):
                assert cube.issuperset(enumerate_points(f, 3))

    def test_face_with_more_blocks_than_the_recursion_limit(self):
        k = sys.getrecursionlimit() + 10
        f = OrderedSetPartition(tuple((i,) for i in range(1, k + 1)))
        assert list(enumerate_points(f, 1)) == [(0,) * k]

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
        points = list(cube_points(2, 3))
        assert points == sorted(product(range(3), repeat=2))

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            cube_points(8, 10, max_points=10 ** 6)

    def test_a_need_too_long_to_print_is_refused_by_its_size(self):
        with pytest.raises(BudgetExceededError) as refused:
            cube_points(5000, 10)
        assert refused.value.required == 10 ** 5000
        assert f"needs at least 2^{(10 ** 5000).bit_length() - 1}," in str(refused.value)

    def test_a_need_prints_in_full_below_4300_digits(self):
        with pytest.raises(BudgetExceededError, match=f"needs 1{'0' * 4298}, budget is 10000000$"):
            cube_points(4298, 10)
        with pytest.raises(BudgetExceededError, match=r"needs at least 2\^14280, budget"):
            cube_points(4299, 10)
        # Its logarithm rounds to that of 10^4299, so only the need tells.
        with pytest.raises(BudgetExceededError, match=f"needs {'9' * 4299}, budget is 1$"):
            check_need(4299 * log2(10), lambda: 10 ** 4299 - 1, 1, "scan")

    def test_a_huge_need_fits_a_cap_it_equals(self):
        assert next(cube_points(5000, 10, max_points=10 ** 5000)) == (0,) * 5000
        with pytest.raises(BudgetExceededError) as refused:
            cube_points(5000, 10, max_points=10 ** 5000 - 1)
        assert refused.value.required == 10 ** 5000

    def test_a_huge_need_just_under_a_power_of_two_states_its_bit_length(self):
        # 300 * log2(2^60 - 1) rounds to 18000.0; the need has 18,000 bits.
        with pytest.raises(BudgetExceededError, match=r"needs at least 2\^17999, budget") as refused:
            cube_points(300, 2 ** 60 - 1)
        assert refused.value.required == (2 ** 60 - 1) ** 300

    @pytest.mark.parametrize("cap", [True, 0, -5, 2.0, "x", None])
    def test_rejects_a_cap_that_is_not_a_positive_integer(self, cap):
        with pytest.raises(DomainError, match="^point cap must be an integer >= 1"):
            cube_points(2, 2, max_points=cap)

    def test_is_lazy(self):
        points = cube_points(2, 2)
        assert iter(points) is points and next(points) == (0, 0)

    @pytest.mark.parametrize("p,n", [
        (0, 1), (1, 0), (2, True), (2, 2.0), (True, 2), (2.0, 2),
    ])
    def test_rejects_a_dimension_or_side_that_is_not_a_positive_integer(self, p, n):
        with pytest.raises(DomainError) as raised:
            cube_points(p, n)
        if type(p) is int and p >= 1:
            assert str(raised.value) == side_error(n)

    def test_generated_points_are_coordinate_tuples_in_range(self):
        for p in range(1, 11):
            for n in range(1, 5):
                if n ** p > 1024:
                    continue
                for q in cube_points(p, n):
                    assert type(q) is tuple and len(q) == p
                    assert all(type(c) is int and 0 <= c < n for c in q)


class TestPointMultiplicity:
    def test_every_point_in_a_top_face(self):
        for p in range(1, 5):
            top = enumerate_facets(p, 0)
            for q in cube_points(p, 3):
                assert any(oracle_facet_contains(f.blocks, q) for f in top)

    def test_rejects_dimension_zero(self):
        with pytest.raises(DomainError, match=r"^dimension must be >= 1, got p=0$"):
            point_multiplicity(())

    @pytest.mark.parametrize("point", [
        pytest.param((1, True), id="bool"), pytest.param((0, 1.0), id="float"),
    ])
    def test_rejects_a_coordinate_that_is_not_an_integer(self, point):
        with pytest.raises(DomainError) as raised:
            point_multiplicity(point)
        assert str(raised.value) == f"coordinates must be integers, got {point}"

    def test_a_list_is_refused_with_its_coordinates_as_a_tuple(self):
        with pytest.raises(DomainError) as raised:
            point_multiplicity([0, 0.5, 2])
        assert str(raised.value) == "coordinates must be integers, got (0, 0.5, 2)"

    def test_accepts_a_list(self):
        assert point_multiplicity([2, 0, 1]) == point_multiplicity([1, 0, 1]) == 1

    def test_only_the_order_type_counts(self):
        # Off the cube, but ordered as (0, 2, 0, 1).
        cap = DEFAULT_MAX_EXPRESSIONS
        assert point_multiplicity((-3, 5, -3, 0)) == 1
        assert lattice._containing_counts((-3, 5, -3, 0), cap) == \
            lattice._containing_counts((0, 2, 0, 1), cap)

    def test_a_bool_cap_is_refused_after_its_int_twin_is_cached(self):
        # True == 1 and hashes alike, so the face index is cached by type.
        assert point_multiplicity((0,), max_expressions=1) == 1
        with pytest.raises(DomainError, match="^expression cap must be an integer >= 1"):
            point_multiplicity((0,), max_expressions=True)

    def test_the_budget_is_checked_before_the_point_is_encoded(self, monkeypatch):
        # 12! expressions at l = 0 exceed the default cap of 9! * 2^8.
        def refuse(point):
            raise AssertionError("the point was encoded")
        monkeypatch.setattr(lattice, "_lacked", refuse)
        with pytest.raises(BudgetExceededError):
            point_multiplicity((0,) * 12)

    def test_expression_cap_is_keyword_only(self):
        # A caller that still passes p must not have it taken as the cap.
        with pytest.raises(TypeError):
            point_multiplicity((1, 0), 2)


class TestFaceRelationIndex:
    def test_relation_test_matches_the_membership_oracle(self):
        """Each face's verdict, read off the bit-sliced index codimension by
        codimension, is the oracle's, and the spans tile the faces."""
        for p in range(1, 6):
            sets, spans = lattice._face_index(p, DEFAULT_MAX_EXPRESSIONS)
            assert len(sets) == p * p and len(spans) == p
            start = 0
            for l, span in enumerate(spans):
                faces = enumerate_facets(p, l)
                assert span == (start, len(faces))
                for n in range(1, 4):
                    for q in cube_points(p, n):
                        lacked = list(compress(sets, lattice._lacked(q)))
                        for f, face in enumerate(faces, start):
                            held = not any(faces_of >> f & 1 for faces_of in lacked)
                            assert held == oracle_facet_contains(face.blocks, q)
                start += len(faces)
            assert all(faces_of >> start == 0 for faces_of in sets)

    def test_index_bits_are_the_per_face_encoding(self):
        """Off the diagonal, bit f of the set of relation r is entry r of
        the relations face f forces, read off its surjection, which
        `test_properties` checks against the oracle. p=1 has no relation
        off the diagonal."""
        for p in range(2, 8):
            sets, spans = lattice._face_index(p, DEFAULT_MAX_EXPRESSIONS)
            total = sum(count for _, count in spans)
            off = [r // p != r % p for r in range(p * p)]
            # Each set read once, as its digits from bit 0 up; column f is
            # face f's entry for each relation off the diagonal.
            digits = [format(faces_of, f"0{total}b")[::-1] for faces_of in compress(sets, off)]
            read = [[digit == "1" for digit in column] for column in zip(*digits)]
            for l, (start, count) in enumerate(spans):
                faces = enumerate_facets(p, l)
                assert read[start:start + count] == [
                    list(compress(forced(face), off)) for face in faces]

    def test_diagonal_sets_are_zero(self):
        """Every face forces x_i >= x_i, but no point lacks it (see
        `test_properties`), so the index stores 0 for each r = i*p + i."""
        for p in range(1, 8):
            sets, _ = lattice._face_index(p, DEFAULT_MAX_EXPRESSIONS)
            assert [sets[i * p + i] for i in range(p)] == [0] * p

    @pytest.mark.parametrize("p", [8, 9])
    def test_containing_counts_are_products_over_level_sets(self, p):
        """A face contains a point iff each block lies in one set of equal
        coordinates and the blocks come in decreasing order of value. So
        the faces of p-l blocks through the point are the coefficient of
        t^(p-l) in the product, over the point's level sets of sizes g, of
        sum_j c(g, g-j) t^j, where c(g, g-j) counts the maps of g indices
        onto j blocks. Each span counts the faces of its codimension."""
        def onto(g, j):
            return sum((-1) ** i * comb(j, i) * (j - i) ** g for i in range(j + 1))

        points = [
            (0,) * p, tuple(range(p, 0, -1)), (5,) * (p - 1) + (2,),
            tuple(i % 2 for i in range(p)), tuple(i * 7 % 3 for i in range(p)),
            tuple(min(i, 3) for i in range(p))[::-1], (-1, 4, 4, 0, -1, 4, 0, 4, 9)[:p],
        ]
        try:
            _, spans = lattice._face_index(p, DEFAULT_MAX_EXPRESSIONS)
            counts = [facet_count(p, l) for l in range(p)]
            assert spans == tuple(zip(accumulate(counts, initial=0), counts))
            for point in points:
                by_blocks = [1]
                for g in Counter(point).values():
                    times_level = [0] * (len(by_blocks) + g)
                    for i, faces in enumerate(by_blocks):
                        for j in range(1, g + 1):
                            times_level[i + j] += faces * onto(g, j)
                    by_blocks = times_level
                expected = [by_blocks[p - l] for l in range(p)]
                assert lattice._containing_counts(point, DEFAULT_MAX_EXPRESSIONS) == expected
        finally:
            # The p=9 index holds about 60 MB; drop it.
            lattice._face_index.cache_clear()

    def test_containing_counts_are_the_geometric_terms(self):
        """Summed over the cube, the codimension-l faces that contain each
        point are the incidences behind c(p,l) * F^{p-l}_n, which the
        geometric route counts face by face."""
        for p in range(1, 6):
            for n in range(1, 4):
                totals = [0] * p
                for q in cube_points(p, n):
                    counts = lattice._containing_counts(q, DEFAULT_MAX_EXPRESSIONS)
                    totals = [a + b for a, b in zip(totals, counts, strict=True)]
                terms = verify_geometric(p, n).per_l_terms
                assert totals == [abs(t.signed_term) for t in terms]

    def test_multiplicity_matches_uncached_count_at_p6(self):
        faces = faces_by_codimension(6)
        for coords in [(0,) * 6, (2, 1, 0, 2, 1, 0), (0, 1, 2, 2, 1, 0),
                       (1, 1, 0, 0, 2, 2), (2, 2, 2, 2, 2, 1), (0, 3, 1, 3, 2, 0)]:
            assert point_multiplicity(coords) == signed_count(faces, coords) == 1

    def test_types_are_exactly_weak_orders(self):
        """Points of side n group by the relations they lack into types
        with k distinct values, C(n, k) points each, and k! * S(p, k) such
        types."""
        for p in range(1, 6):
            for n in range(1, 5):
                groups = defaultdict(list)
                for q in cube_points(p, n):
                    groups[tuple(lattice._lacked(q))].append(q)
                types_by_k = Counter()
                for members in groups.values():
                    (k,) = {len(set(coords)) for coords in members}
                    assert len(members) == comb(n, k)
                    types_by_k[k] += 1
                assert types_by_k == {
                    k: facet_count(p, p - k) for k in range(1, min(p, n) + 1)
                }

    def test_missing_face_is_reported_at_the_first_wrong_point(self, monkeypatch):
        # The real p=4 index less its first codimension-2 face: that bit
        # leaves every set, the bits above it move down, and the spans shrink.
        real = lattice._face_index
        sets, spans = real(4, DEFAULT_MAX_EXPRESSIONS)
        gone = spans[2][0]
        below = (1 << gone) - 1
        index = (
            tuple((faces_of & below) | (faces_of >> (gone + 1) << gone) for faces_of in sets),
            tuple((start - (l > 2), count - (l == 2)) for l, (start, count) in enumerate(spans)),
        )
        broken = list(faces_by_codimension(4))
        broken[2] = broken[2][1:]
        broken = tuple(broken)
        monkeypatch.setattr(
            lattice, "_face_index", lambda p, cap: index if p == 4 else real(p, cap)
        )
        real.cache_clear()
        try:
            report = verify_pointwise(4, 3)
            counts = [(q, signed_count(broken, q)) for q in cube_points(4, 3)]
            assert report.ok is False
            assert report.first_failure == next(c for c, m in counts if m != 1)
            assert report.rhs == sum(m for _, m in counts)

            assert verify_pointwise(5, 3).ok is True
            assert verify_pointwise(4, 2).ok is False
            assert real.cache_info().currsize == 1
        finally:
            real.cache_clear()

    def test_pointwise_cell_keeps_no_face_objects(self, live_objects):
        # A p=1 cell first, so no cache still holds faces of a larger p.
        assert verify_pointwise(1, 1).ok is True
        before = len(live_objects(OrderedSetPartition))
        assert verify_pointwise(6, 2).ok is True
        assert len(live_objects(OrderedSetPartition)) <= before

    def test_index_build_holds_no_face_list(self, traced_peak):
        """The traced peak of a p=7 build stays under three times the size
        of the sets it returns; a list of the faces of one codimension
        would take more. A p=6 build first, so one-off allocations are not
        counted."""
        lattice._face_index.__wrapped__(6, DEFAULT_MAX_EXPRESSIONS)
        built = []
        peak = traced_peak(lambda: built.append(
            lattice._face_index.__wrapped__(7, DEFAULT_MAX_EXPRESSIONS)))
        assert peak < 3 * sum(map(sys.getsizeof, built[0][0]))

    def test_every_expression_cap_is_checked_before_any_face(self, monkeypatch):
        # p=5 needs 120, 480 and 720 expressions for l = 0, 1, 2.
        def refuse(*args):
            raise AssertionError("the index build began")
        monkeypatch.setattr(lattice, "combinations", refuse)
        lattice._face_index.cache_clear()
        try:
            with pytest.raises(BudgetExceededError,
                               match=r"\(p=5, l=2\).*needs 720, budget is 500"):
                point_multiplicity((0,) * 5, max_expressions=500)
        finally:
            lattice._face_index.cache_clear()

    def test_face_index_receives_the_pointwise_expression_cap(self, monkeypatch):
        caps = []
        real = lattice.check_expressions

        def spy(p, max_expressions):
            caps.append(max_expressions)
            return real(p, max_expressions)

        monkeypatch.setattr(lattice, "check_expressions", spy)
        lattice._face_index.cache_clear()
        try:
            raised = 2 * DEFAULT_MAX_EXPRESSIONS
            assert verify_pointwise(3, 2, max_expressions=raised).ok is True
            assert caps == [raised]
            caps.clear()
            assert point_multiplicity((1, 0, 1)) == 1
            assert caps == [DEFAULT_MAX_EXPRESSIONS]
        finally:
            lattice._face_index.cache_clear()
