"""Properties of the face value type and the lattice layer on drawn inputs.

The exhaustive tests stop at p <= 5-7; these draw faces of {1..p} for
p <= 12 and points of the cube [0, n-1]^p. The coordinate check of
`point_multiplicity` and the oracle that turns a surjection into a face
are each compared with a predicate written here, independent of the
package.
"""
from itertools import compress

from hypothesis import given, strategies as st

from figulat.combinatorics import figurate
from figulat.errors import DomainError
from figulat.facets import OrderedSetPartition, facet_to_surjection
from figulat.lattice import _lacked, enumerate_points, point_multiplicity
from figulat.oracles import oracle_facet_contains, oracle_surjection_to_facet

MAX_P = 12


@st.composite
def faces(draw):
    """An ordered set partition of {1..p}: an ordering of the indices cut
    into consecutive runs, each run sorted into a block."""
    p = draw(st.integers(1, MAX_P))
    order = draw(st.permutations(range(1, p + 1)))
    cuts = draw(st.lists(st.booleans(), min_size=p - 1, max_size=p - 1))
    blocks, run = [], [order[0]]
    for idx, cut in zip(order[1:], cuts):
        if cut:
            blocks.append(tuple(sorted(run)))
            run = []
        run.append(idx)
    blocks.append(tuple(sorted(run)))
    return OrderedSetPartition(tuple(blocks))


@st.composite
def surjections(draw):
    """The values of a map of {1..p} onto {1..k}: drawn values relabelled
    by rank."""
    values = draw(st.lists(st.integers(0, MAX_P), min_size=1, max_size=MAX_P))
    rank = {v: r for r, v in enumerate(sorted(set(values)), 1)}
    return tuple(rank[v] for v in values)


@st.composite
def faces_and_points(draw):
    """A face, a side n and a point of [0, n-1]^p: values drawn per block,
    weakly decreasing in block order when `inside` is drawn, and then,
    when `moved` is drawn, one coordinate redrawn."""
    face = draw(faces())
    p = sum(map(len, face.blocks))
    n = draw(st.integers(1, 4))
    values = draw(st.lists(st.integers(0, n - 1), min_size=face.num_blocks,
                           max_size=face.num_blocks))
    inside = draw(st.booleans())
    if inside:
        values.sort(reverse=True)
    coords = [None] * p
    for value, block in zip(values, face.blocks):
        for idx in block:
            coords[idx - 1] = value
    moved = draw(st.booleans())
    if moved:
        coords[draw(st.integers(0, p - 1))] = draw(st.integers(0, n - 1))
    return face, tuple(coords), inside and not moved


@given(faces())
def test_face_to_surjection_and_back(face):
    assert oracle_surjection_to_facet(facet_to_surjection(face)) == face.blocks


@given(surjections())
def test_surjection_to_face_and_back(surjection):
    face = OrderedSetPartition(oracle_surjection_to_facet(surjection))
    assert facet_to_surjection(face) == surjection


@given(faces(), st.integers(1, 5))
def test_enumerated_points_lie_on_the_face_and_count_figurate(face, n):
    k = face.num_blocks
    count = 0
    # The point cap bounds n^k, not the figurate(k, n) points enumerated.
    for point in enumerate_points(face, n, max_points=n ** k):
        assert oracle_facet_contains(face.blocks, point)
        count += 1
    assert count == figurate(k, n)


@given(faces_and_points())
def test_relation_test_matches_the_membership_oracle(drawn):
    face, point, inside = drawn
    contained = oracle_facet_contains(face.blocks, point)
    assert contained or not inside
    # The face forces x_a >= x_b iff a's block is b's or an earlier one.
    s = facet_to_surjection(face)
    forced = [sa <= sb for sa in s for sb in s]
    assert (not any(compress(forced, _lacked(point)))) == contained


def is_integer(value):
    return type(value) is int


def valid_surjection(values):
    return (
        len(values) > 0
        and all(map(is_integer, values))
        and set(values) == set(range(1, max(values) + 1))
    )


def valid_point(coords):
    return len(coords) > 0 and all(map(is_integer, coords))


NOT_INTEGERS = st.sampled_from([True, False, 1.0, 2.0])
# True once in four draws: each way to break an input is drawn rarely, so
# that valid inputs are drawn often.
rarely = st.integers(0, 3).map(lambda i: i == 0)


@st.composite
def spoiled(draw, lists):
    """A list drawn from `lists`, and, rarely, one entry replaced by a
    bool or a float."""
    values = list(draw(lists))
    if values and draw(rarely):
        values[draw(st.integers(0, len(values) - 1))] = draw(NOT_INTEGERS)
    return values


surjection_arguments = st.tuples(spoiled(st.one_of(
    surjections(), st.lists(st.integers(-1, 5), max_size=6)
)))


@given(spoiled(st.lists(st.integers(-2, 5), max_size=5)))
def test_point_multiplicity_accepts_exactly_the_integer_points(coords):
    """Any nonempty sequence of integers, off the cube too, has signed
    cover multiplicity 1; anything else is refused."""
    try:
        multiplicity = point_multiplicity(coords)
    except DomainError:
        assert not valid_point(coords)
        return
    assert valid_point(coords)
    assert multiplicity == 1


@given(surjection_arguments)
def test_surjection_oracle_accepts_exactly_the_valid_maps(args):
    """The oracle is the one way a map becomes a face, and the face its
    blocks make maps back to the same values."""
    try:
        blocks = oracle_surjection_to_facet(*args)
    except DomainError:
        assert not valid_surjection(*args)
        return
    assert valid_surjection(*args)
    assert facet_to_surjection(OrderedSetPartition(blocks)) == tuple(*args)
