"""Deliberately naive reference computations.

Every closed form and the face generator have a counterpart here that
shares no code with them: surjections by filtering all maps, set
partitions by direct recursion, figurate counts by scanning all tuples,
faces by collapsing every chain expression of the paper, and the signed
cover by the group-factorization shortcut. Face membership is read off a
point's coordinates block by block, and a surjection becomes a face by
taking the preimage of each value. Slowness is the point; these exist to
be obviously correct. They take and return plain values and import only
`errors`. Each scan refuses past one fixed budget, `MAX_SCAN` maps,
tuples or expressions, and the set-partition recursion past
`MAX_PARTITION_SIZE` elements; no oracle takes a cap.
"""
from __future__ import annotations

from itertools import combinations, permutations, product
from math import comb, factorial
from operator import ge

from .errors import BudgetExceededError, DomainError

MAX_SCAN = 10 ** 7
MAX_PARTITION_SIZE = 10


def _check_integers(template: str, *values) -> None:
    """Raise DomainError unless every value is an int and none is a bool.
    The message is `template` formatted with the values, each by position
    and all as the tuple `values`; it is built only on refusal."""
    if any(isinstance(value, bool) or not isinstance(value, int) for value in values):
        raise DomainError(template.format(*values, values=values))


def _check_need(required: int, budget: int, template: str, *values) -> None:
    """Raise BudgetExceededError if `required` exceeds `budget`; the message
    is `template` formatted with the values, built only on refusal."""
    if required > budget:
        raise BudgetExceededError(template.format(*values), required, budget)


def oracle_surjections(m: int, k: int) -> list[tuple[int, ...]]:
    """The value tuples of all surjections {1..m} -> {1..k}, by filtering
    all k^m maps. Lexicographic order."""
    _check_integers("sizes must be integers, got (m={!r}, k={!r})", m, k)
    if m < 1 or k < 1:
        raise DomainError(f"sizes must be >= 1, got (m={m}, k={k})")
    _check_need(k ** m, MAX_SCAN, "surjection scan for (m={}, k={}) exceeds the map cap", m, k)
    full_range = set(range(1, k + 1))
    return [values for values in product(range(1, k + 1), repeat=m) if set(values) == full_range]


def oracle_set_partitions(m: int) -> list[tuple[tuple[int, ...], ...]]:
    """All unordered set partitions of {1..m}, blocks sorted by least
    element, indices ascending inside blocks. Canonical order."""
    _check_integers("size must be an integer, got {!r}", m)
    if m < 0:
        raise DomainError(f"size must be >= 0, got {m}")
    _check_need(m, MAX_PARTITION_SIZE, "set-partition enumeration exceeds the size cap")

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


def oracle_weakly_decreasing_tuples(k: int, n: int) -> int:
    """Count weakly decreasing k-tuples over {0..n-1} by scanning all n^k."""
    _check_integers("arguments must be integers, got (k={!r}, n={!r})", k, n)
    if k < 1 or n < 1:
        raise DomainError(f"arguments must be >= 1, got (k={k}, n={n})")
    _check_need(n ** k, MAX_SCAN, "tuple scan for (k={}, n={}) exceeds the point cap", k, n)
    return sum(1 for t in product(range(n), repeat=k) if all(map(ge, t, t[1:])))


def oracle_collapsed_faces(p: int, l: int) -> dict[tuple[tuple[int, ...], ...], int]:
    """The faces of codimension l by the paper's definition. A chain
    expression is a permutation sigma of {1..p} with ">=" or "=" between
    neighbours, l of the p-1 symbols "="; it collapses to the face whose
    blocks are its maximal "=" runs, each sorted, in chain order. Maps each
    face's blocks to the number of the p! * C(p-1, l) expressions that
    collapse to it."""
    _check_integers("arguments must be integers, got (p={!r}, l={!r})", p, l)
    if not 0 <= l < p:
        raise DomainError(f"arguments must satisfy 0 <= l < p, got (p={p}, l={l})")
    _check_need(factorial(p) * comb(p - 1, l), MAX_SCAN,
                "chain-expression collapse for (p={}, l={}) exceeds the expression cap", p, l)
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
    refusal = "surjection values must be integers onto 1..k, got {values}"
    _check_integers(refusal, *values)
    if not values or set(values) != set(range(1, max(values) + 1)):
        raise DomainError(refusal.format(values=values))
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
