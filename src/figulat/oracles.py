"""Deliberately naive reference computations.

Every closed form in the package has a counterpart here that shares no code
with it: surjections by filtering all maps, set partitions by direct
recursion, figurate counts by scanning all tuples, and the signed cover by
the group-factorization shortcut. Slowness is the point; these exist to be
obviously correct. They return plain values and import only `errors`.
"""
from __future__ import annotations

from itertools import product
from math import factorial
from operator import ge

from .errors import BudgetExceededError, DomainError

DEFAULT_MAX_MAPS = 10 ** 7
MAX_PARTITION_SIZE = 10


def oracle_surjections(m: int, k: int, max_maps: int = DEFAULT_MAX_MAPS) -> list[tuple[int, ...]]:
    """The value tuples of all surjections {1..m} -> {1..k}, by filtering
    all k^m maps. Lexicographic order."""
    if (isinstance(m, bool) or isinstance(k, bool)
            or not isinstance(m, int) or not isinstance(k, int)):
        raise DomainError(f"sizes must be integers, got (m={m!r}, k={k!r})")
    if m < 1 or k < 1:
        raise DomainError(f"sizes must be >= 1, got (m={m}, k={k})")
    if k ** m > max_maps:
        raise BudgetExceededError(
            f"surjection scan for (m={m}, k={k}) exceeds the map cap", k ** m, max_maps
        )
    full_range = set(range(1, k + 1))
    return [values for values in product(range(1, k + 1), repeat=m) if set(values) == full_range]


def oracle_set_partitions(m: int) -> list[tuple[tuple[int, ...], ...]]:
    """All unordered set partitions of {1..m}, blocks sorted by least
    element, indices ascending inside blocks. Canonical order."""
    if isinstance(m, bool) or not isinstance(m, int):
        raise DomainError(f"size must be an integer, got {m!r}")
    if m < 0:
        raise DomainError(f"size must be >= 0, got {m}")
    if m > MAX_PARTITION_SIZE:
        raise BudgetExceededError(
            "set-partition enumeration exceeds the size cap", m, MAX_PARTITION_SIZE
        )

    def extend(element: int, partial: tuple[tuple[int, ...], ...]):
        if element > m:
            yield partial
            return
        for i, block in enumerate(partial):
            yield from extend(
                element + 1, partial[:i] + (block + (element,),) + partial[i + 1:]
            )
        yield from extend(element + 1, partial + ((element,),))

    if m == 0:
        return [()]
    return sorted(extend(2, ((1,),)))


def oracle_weakly_decreasing_tuples(k: int, n: int, max_points: int = DEFAULT_MAX_MAPS) -> int:
    """Count weakly decreasing k-tuples over {0..n-1} by scanning all n^k."""
    if (isinstance(k, bool) or isinstance(n, bool)
            or not isinstance(k, int) or not isinstance(n, int)):
        raise DomainError(f"arguments must be integers, got (k={k!r}, n={n!r})")
    if k < 1 or n < 1:
        raise DomainError(f"arguments must be >= 1, got (k={k}, n={n})")
    if n ** k > max_points:
        raise BudgetExceededError(
            f"tuple scan for (k={k}, n={n}) exceeds the point cap", n ** k, max_points
        )
    return sum(1 for t in product(range(n), repeat=k) if all(map(ge, t, t[1:])))


def _group_factor(size: int) -> int:
    """Sum over set partitions of a size-element set of (-1)^(size - blocks)
    * blocks!; always 1."""
    return sum(
        (-1) ** (size - len(partition)) * factorial(len(partition))
        for partition in oracle_set_partitions(size)
    )


def oracle_signed_cover(point: "LatticePoint") -> int:
    """Signed cover multiplicity by the algebraic shortcut: the sum
    factorizes over groups of coordinates sharing a value, one factor per
    group, each factor 1. Reads only the point's `coords`."""
    result = 1
    for value in set(point.coords):
        group_size = sum(1 for c in point.coords if c == value)
        result *= _group_factor(group_size)
    return result
