"""Deliberately naive reference computations.

Every closed form and the face generator have a counterpart here that
shares no code with them: surjections by filtering all maps, set
partitions by direct recursion, figurate counts by scanning all tuples,
faces by collapsing every chain expression of the paper, and the signed
cover by the group-factorization shortcut. Face membership is read off a
point's coordinates block by block, and a surjection becomes a face by
taking the preimage of each value. Slowness is the point; these exist to
be obviously correct. They take and return plain values and import only
`errors`.
"""
from __future__ import annotations

from itertools import combinations, permutations, product
from math import comb, factorial
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
    if isinstance(max_maps, bool) or not isinstance(max_maps, int) or max_maps < 1:
        raise DomainError(f"map cap must be an integer >= 1, got {max_maps!r}")
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
    if isinstance(max_points, bool) or not isinstance(max_points, int) or max_points < 1:
        raise DomainError(f"point cap must be an integer >= 1, got {max_points!r}")
    if n ** k > max_points:
        raise BudgetExceededError(
            f"tuple scan for (k={k}, n={n}) exceeds the point cap", n ** k, max_points
        )
    return sum(1 for t in product(range(n), repeat=k) if all(map(ge, t, t[1:])))


def oracle_collapsed_faces(
    p: int, l: int, max_expressions: int = DEFAULT_MAX_MAPS
) -> dict[tuple[tuple[int, ...], ...], int]:
    """The faces of codimension l by the paper's definition. A chain
    expression is a permutation sigma of {1..p} with ">=" or "=" between
    neighbours, l of the p-1 symbols "="; it collapses to the face whose
    blocks are its maximal "=" runs, each sorted, in chain order. Maps each
    face's blocks to the number of the p! * C(p-1, l) expressions that
    collapse to it."""
    if (isinstance(p, bool) or isinstance(l, bool)
            or not isinstance(p, int) or not isinstance(l, int)):
        raise DomainError(f"arguments must be integers, got (p={p!r}, l={l!r})")
    if not 0 <= l < p:
        raise DomainError(f"arguments must satisfy 0 <= l < p, got (p={p}, l={l})")
    if (isinstance(max_expressions, bool) or not isinstance(max_expressions, int)
            or max_expressions < 1):
        raise DomainError(f"expression cap must be an integer >= 1, got {max_expressions!r}")
    required = factorial(p) * comb(p - 1, l)
    if required > max_expressions:
        raise BudgetExceededError(
            f"chain-expression collapse for (p={p}, l={l}) exceeds the expression cap",
            required, max_expressions,
        )
    counts: dict[tuple[tuple[int, ...], ...], int] = {}
    for sigma in permutations(range(1, p + 1)):
        # The p-1-l positions of ">=" cut sigma into its "=" runs.
        for cuts in combinations(range(1, p), p - 1 - l):
            bounds = (0, *cuts, p)
            blocks = tuple(tuple(sorted(sigma[a:b])) for a, b in zip(bounds, bounds[1:]))
            counts[blocks] = counts.get(blocks, 0) + 1
    return counts


def oracle_facet_contains(blocks: tuple[tuple[int, ...], ...], coords: tuple[int, ...]) -> bool:
    """True iff the face with these blocks holds the point with these
    coordinates: the coordinates are constant on every block and the block
    values weakly decrease along the block order."""
    size = sum(map(len, blocks))
    if size != len(coords):
        raise DomainError(f"face partitions {size} indices but point has {len(coords)} coordinates")
    # The set of coordinate values on each block, in block order.
    levels = [{coords[i - 1] for i in block} for block in blocks]
    return all(len(level) == 1 for level in levels) and all(
        map(ge, map(min, levels), map(min, levels[1:])))


def oracle_surjection_to_facet(values: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The blocks of the face of a surjection {1..p} -> {1..k}, given by
    its values: block i is the preimage of value i. Refuses an empty map,
    a value that is not an integer, and a map that is not onto {1..k}."""
    values = tuple(values)
    if (not values or any(isinstance(v, bool) or not isinstance(v, int) for v in values)
            or set(values) != set(range(1, max(values) + 1))):
        raise DomainError(f"surjection values must be integers onto 1..k, got {values}")
    return tuple(tuple(i for i, v in enumerate(values, 1) if v == value)
                 for value in range(1, max(values) + 1))


def _group_factor(size: int) -> int:
    """Sum over set partitions of a size-element set of (-1)^(size - blocks)
    * blocks!; always 1."""
    return sum(
        (-1) ** (size - len(partition)) * factorial(len(partition))
        for partition in oracle_set_partitions(size)
    )


def oracle_signed_cover(point: tuple[int, ...]) -> int:
    """Signed cover multiplicity by the algebraic shortcut: the sum
    factorizes over groups of coordinates sharing a value, one factor per
    group, each factor 1. The point is its tuple of coordinates."""
    result = 1
    for value in set(point):
        group_size = sum(1 for c in point if c == value)
        result *= _group_factor(group_size)
    return result
