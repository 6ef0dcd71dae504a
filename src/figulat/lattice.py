"""Lattice-point geometry of the cube faces: membership, per-face point
enumeration, and the signed cover multiplicity of a point.

A face is the set {x : x_i >= x_j for every relation its chain forces},
so whether it contains a point depends only on the point's weak order
type. Both are encoded as relation bit sets on p indices (bit i*p + j set
iff x_{i+1} >= x_{j+1}), and a face contains a point iff every bit of the
face is a bit of the point.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product
from operator import itemgetter
from typing import Iterator, Sequence

from .combinatorics import figurate
from .errors import BudgetExceededError, DomainError
from .facets import DEFAULT_MAX_EXPRESSIONS, OrderedSetPartition, enumerate_facets

# Full-cube scans and per-face enumerations stop at this many points.
DEFAULT_MAX_POINTS = 10 ** 7


@dataclass(frozen=True)
class LatticePoint:
    coords: tuple[int, ...]
    side: int

    def __post_init__(self):
        if self.side < 1:
            raise DomainError(f"side must be >= 1, got {self.side}")
        if self.coords and (min(self.coords) < 0 or max(self.coords) >= self.side):
            raise DomainError(
                f"coordinates must lie in [0, {self.side - 1}], got {self.coords}"
            )

    @classmethod
    def _trusted(cls, coords, side):
        """Build without the checks, for a side >= 1 and coordinates the
        package's own generators have drawn from range(side)."""
        point = object.__new__(cls)
        object.__setattr__(point, "coords", coords)
        object.__setattr__(point, "side", side)
        return point

    def text(self) -> str:
        return ",".join(str(c) for c in self.coords)


def facet_contains(facet: OrderedSetPartition, point: LatticePoint) -> bool:
    """True iff coordinates are constant on every block and the block values
    weakly decrease along the block order."""
    if facet.ground_size != len(point.coords):
        raise DomainError(
            f"face partitions {facet.ground_size} indices but point has "
            f"{len(point.coords)} coordinates"
        )
    values = []
    for block in facet.blocks:
        first = point.coords[block[0] - 1]
        if any(point.coords[i - 1] != first for i in block[1:]):
            return False
        values.append(first)
    return all(a >= b for a, b in zip(values, values[1:]))


def enumerate_points(
    facet: OrderedSetPartition, n: int, max_points: int = DEFAULT_MAX_POINTS
) -> Iterator[LatticePoint]:
    """Yield the lattice points of the face, each once. Read from the last
    block to the first, the block values weakly increase: they are the
    size-k multisets of {0..n-1}, yielded in lexicographic order."""
    if n < 1:
        raise DomainError(f"side must be >= 1, got n={n}")
    k = facet.num_blocks
    if n ** k > max_points:
        raise BudgetExceededError(
            f"point enumeration for a {k}-block face at side {n} exceeds the "
            f"point cap", n ** k, max_points
        )
    # where[i] is the position, counted from the last block, of the block
    # holding index i + 1. With one index the value tuple is already the
    # coordinate tuple; itemgetter of one index would return a bare value.
    where = [0] * facet.ground_size
    for position, block in enumerate(reversed(facet.blocks)):
        for idx in block:
            where[idx - 1] = position
    coords_of = itemgetter(*where) if len(where) > 1 else tuple
    trusted = LatticePoint._trusted
    return (
        trusted(coords_of(values), n)
        for values in combinations_with_replacement(range(n), k)
    )


def count_lattice_points(facet: OrderedSetPartition, n: int) -> int:
    """Closed form: a face with k blocks contains figurate(k, n) points."""
    if n < 1:
        raise DomainError(f"side must be >= 1, got n={n}")
    return figurate(facet.num_blocks, n)


def cube_points(p: int, n: int, max_points: int = DEFAULT_MAX_POINTS) -> Iterator[LatticePoint]:
    """All n^p lattice points of the cube, in lexicographic order."""
    if p < 1 or n < 1:
        raise DomainError(f"cube requires p >= 1 and n >= 1, got (p={p}, n={n})")
    if n ** p > max_points:
        raise BudgetExceededError(
            f"cube scan for (p={p}, n={n}) exceeds the point cap", n ** p, max_points
        )
    trusted = LatticePoint._trusted
    return (trusted(coords, n) for coords in product(range(n), repeat=p))


def _weak_order(values: Sequence[int]) -> int:
    """The weak order of the values: bit i*p + j is set iff
    values[i] >= values[j]."""
    p = len(values)
    return sum(
        1 << (i * p + j)
        for i, a in enumerate(values)
        for j, b in enumerate(values)
        if a >= b
    )


def _face_relation(facet: OrderedSetPartition, p: int) -> int:
    """The relations the face forces: bit i*p + j is set iff index i+1 sits
    in the same block as j+1 or an earlier one."""
    bits = 0
    at_or_after = 0  # indices in this block or a later one
    for block in reversed(facet.blocks):
        for idx in block:
            at_or_after |= 1 << (idx - 1)
        for idx in block:
            bits |= at_or_after << ((idx - 1) * p)
    return bits


@lru_cache(maxsize=1)
def _face_index(p: int, max_expressions: int) -> tuple[tuple[int, ...], ...]:
    """The relation bit set of every face, by codimension. Cached for the
    last p and expression cap only, since sweeps run p-major; the faces
    themselves are not kept."""
    return tuple(
        tuple(_face_relation(f, p) for f in enumerate_facets(p, l, max_expressions))
        for l in range(p)
    )


def point_multiplicity(
    point: LatticePoint, p: int, max_expressions: int = DEFAULT_MAX_EXPRESSIONS
) -> int:
    """Signed cover multiplicity: sum over codimension l of (-1)^l times the
    number of codimension-l faces containing the point. Always 1 for points
    of the cube. The faces are tested one by one; `max_expressions` is the
    budget of the face enumeration."""
    if p < 1:
        raise DomainError(f"dimension must be >= 1, got p={p}")
    if len(point.coords) != p:
        raise DomainError(
            f"point has {len(point.coords)} coordinates, expected {p}"
        )
    outside = ~_weak_order(point.coords)
    return sum(
        (-1) ** l * sum(1 for f in by_l if not f & outside)
        for l, by_l in enumerate(_face_index(p, max_expressions))
    )
