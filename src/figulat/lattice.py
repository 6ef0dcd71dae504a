"""Lattice-point geometry of the cube faces: per-face point enumeration,
and the signed cover multiplicity of a point.

A face is the set {x : x_i >= x_j for every relation its chain forces},
so whether it contains a point depends only on the point's weak order
type. One function encodes both as relation bit sets on p indices (bit
i*p + j set iff x_{i+1} >= x_{j+1}), from their levels, lowest first: a
face's blocks read from the last, a point's indices grouped by value. A
face contains a point iff every bit of the face is a bit of the point.

Points, like faces, are immutable named tuples equal only to their own
type. A direct `LatticePoint(...)` call checks that its side and
coordinates are integers in range and stores the coordinates as a tuple.
The point generators reject the sides the constructor rejects, with its
messages, then build each point with `tuple.__new__`, unchecked.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations_with_replacement, product, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError, DomainError, check_integers
from .facets import (
    DEFAULT_MAX_EXPRESSIONS,
    OrderedSetPartition,
    _Value,
    check_every_codimension,
    enumerate_facets,
)

# Full-cube scans and per-face enumerations stop at this many points.
DEFAULT_MAX_POINTS = 10 ** 7
_POINT_CAP = "point cap must be an integer >= 1, got {!r}"


class LatticePoint(_Value, namedtuple("LatticePoint", "coords side")):
    __slots__ = ()

    def __new__(cls, coords: tuple[int, ...], side: int):
        coords = tuple(coords)
        check_integers("coordinates must be integers, got {values}", *coords)
        check_integers("side must be an integer, got {!r}", side)
        if side < 1:
            raise DomainError(f"side must be >= 1, got {side}")
        if coords and (min(coords) < 0 or max(coords) >= side):
            raise DomainError(f"coordinates must lie in [0, {side - 1}], got {coords}")
        return tuple.__new__(cls, (coords, side))

    def text(self) -> str:
        return ",".join(str(c) for c in self.coords)


def enumerate_points(
    facet: OrderedSetPartition, n: int, max_points: int = DEFAULT_MAX_POINTS
) -> Iterator[LatticePoint]:
    """Yield the lattice points of the face, each once. Read from the last
    block to the first, the block values weakly increase: they are the
    size-k multisets of {0..n-1}, yielded in lexicographic order."""
    check_integers("side must be an integer, got {!r}", n)
    if n < 1:
        raise DomainError(f"side must be >= 1, got {n}")
    check_integers(_POINT_CAP, max_points)
    if max_points < 1:
        raise DomainError(_POINT_CAP.format(max_points))
    blocks = facet.blocks
    k = len(blocks)
    if n ** k > max_points:
        raise BudgetExceededError(
            f"point enumeration for a {k}-block face at side {n} exceeds the "
            f"point cap", n ** k, max_points
        )
    # where[i] is the position, counted from the last block, of the block
    # holding index i + 1. With one index the value tuple is already the
    # coordinate tuple; itemgetter of one index would return a bare value.
    where = [0] * sum(map(len, blocks))
    for position, block in enumerate(reversed(blocks)):
        for idx in block:
            where[idx - 1] = position
    coords_of = itemgetter(*where) if len(where) > 1 else tuple
    # Built in C, with no Python frame per point. Coordinates are drawn
    # from range(n), n >= 1, so tuple.__new__ may skip the checks.
    coords = map(coords_of, combinations_with_replacement(range(n), k))
    return map(tuple.__new__, repeat(LatticePoint), zip(coords, repeat(n)))


def cube_points(p: int, n: int, max_points: int = DEFAULT_MAX_POINTS) -> Iterator[LatticePoint]:
    """All n^p lattice points of the cube, in lexicographic order."""
    check_integers("dimension must be an integer, got {!r}", p)
    if p < 1:
        raise DomainError(f"dimension must be >= 1, got p={p}")
    check_integers("side must be an integer, got {!r}", n)
    if n < 1:
        raise DomainError(f"side must be >= 1, got {n}")
    check_integers(_POINT_CAP, max_points)
    if max_points < 1:
        raise DomainError(_POINT_CAP.format(max_points))
    if n ** p > max_points:
        raise BudgetExceededError(
            f"cube scan for (p={p}, n={n}) exceeds the point cap", n ** p, max_points
        )
    new = tuple.__new__  # coordinates drawn from range(n), n >= 1
    return (new(LatticePoint, (coords, n)) for coords in product(range(n), repeat=p))


def _relation(levels: Iterable[Sequence[int]], p: int) -> int:
    """The relation bit set of indices 1..p grouped into levels, lowest
    first: bit i*p + j is set iff index i+1 sits in the level of j+1 or a
    higher one."""
    bits = 0
    at_or_below = 0  # indices in this level or a lower one
    for level in levels:
        for idx in level:
            at_or_below |= 1 << (idx - 1)
        for idx in level:
            bits |= at_or_below << ((idx - 1) * p)
    return bits


def _weak_order(values: Sequence[int]) -> int:
    """The weak order of the values: bit i*p + j is set iff
    values[i] >= values[j]. Its levels are the indices grouped by value."""
    levels = ([i for i, v in enumerate(values, 1) if v == w] for w in sorted(set(values)))
    return _relation(levels, len(values))


@lru_cache(maxsize=1, typed=True)
def _face_index(p: int, max_expressions: int) -> tuple[tuple[int, ...], ...]:
    """The relation bit set of every face, by codimension. Every
    codimension's budget is checked before the first face is built. Cached
    for the last p and expression cap only, since sweeps run p-major; the
    faces themselves are not kept. Typed, so that a bool cap never reads
    the entry of an int one and skips the cap's check."""
    check_every_codimension(p, max_expressions)
    return tuple(
        tuple(_relation(reversed(f.blocks), p) for f in enumerate_facets(p, l, max_expressions))
        for l in range(p)
    )


def point_multiplicity(
    point: LatticePoint, *, max_expressions: int = DEFAULT_MAX_EXPRESSIONS
) -> int:
    """Signed cover multiplicity: sum over codimension l of (-1)^l times the
    number of codimension-l faces containing the point. Always 1 for points
    of the cube. The dimension is the point's number of coordinates. The
    faces are tested one by one; `max_expressions` is the budget of the
    face enumeration."""
    outside = ~_weak_order(point.coords)
    return sum(
        (-1) ** l * sum(1 for f in by_l if not f & outside)
        for l, by_l in enumerate(_face_index(len(point.coords), max_expressions))
    )
