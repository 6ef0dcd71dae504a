"""Lattice-point geometry of the cube faces: membership, per-face point
enumeration, and the signed cover multiplicity of a point."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .combinatorics import figurate
from .errors import BudgetExceededError, DomainError
from .facets import OrderedSetPartition, all_facets_by_codimension

# Full-cube scans and per-face enumerations stop at this many points.
DEFAULT_MAX_POINTS = 10 ** 7


@dataclass(frozen=True)
class LatticePoint:
    coords: tuple[int, ...]
    side: int

    def __post_init__(self):
        if self.side < 1:
            raise DomainError(f"side must be >= 1, got {self.side}")
        if any(c < 0 or c > self.side - 1 for c in self.coords):
            raise DomainError(
                f"coordinates must lie in [0, {self.side - 1}], got {self.coords}"
            )

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


def _weakly_decreasing_tuples(k: int, n: int) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing k-tuples over {0..n-1}, in lexicographic order."""
    if k == 0:
        yield ()
        return
    for first in range(n):
        for rest in _weakly_decreasing_tuples(k - 1, first + 1):
            yield (first,) + rest


def enumerate_points(
    facet: OrderedSetPartition, n: int, max_points: int = DEFAULT_MAX_POINTS
) -> Iterator[LatticePoint]:
    """Yield the lattice points of the face, each once, in lexicographic
    order of the block-value tuples."""
    if n < 1:
        raise DomainError(f"side must be >= 1, got n={n}")
    k = facet.num_blocks
    if n ** k > max_points:
        raise BudgetExceededError(
            f"point enumeration for a {k}-block face at side {n} exceeds the "
            f"point cap", n ** k, max_points
        )

    def generate() -> Iterator[LatticePoint]:
        p = facet.ground_size
        for values in _weakly_decreasing_tuples(k, n):
            coords = [0] * p
            for value, block in zip(values, facet.blocks):
                for idx in block:
                    coords[idx - 1] = value
            yield LatticePoint(tuple(coords), n)

    return generate()


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

    return (LatticePoint(coords, n) for coords in product(range(n), repeat=p))


def point_multiplicity(point: LatticePoint, p: int) -> int:
    """Signed cover multiplicity: sum over codimension l of (-1)^l times the
    number of codimension-l faces containing the point. Always 1 for points
    of the cube."""
    if len(point.coords) != p:
        raise DomainError(
            f"point has {len(point.coords)} coordinates, expected {p}"
        )
    total = 0
    for l, faces in enumerate(all_facets_by_codimension(p)):
        containing = sum(1 for f in faces if facet_contains(f, point))
        total += (-1) ** l * containing
    return total
