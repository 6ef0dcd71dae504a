"""Faces of the order decomposition of the p-cube.

A face is an ordered set partition of {1..p}: blocks of indices with equal
coordinates, block values weakly decreasing in block order; codimension l
means p-l blocks. Faces are built directly, each once, already in sorted
order of their block sequences. Partitions into k blocks are in bijection
with surjections {1..p} -> {1..k}.

The paper's chain expressions stay as the cross-check: a permutation sigma
of {1..p} interleaved with p-1 relations ">=" or "=", which collapses to
its face when each maximal equality run becomes a sorted block. The
expression cap bounds the p! * C(p-1, l) expressions that describe the
codimension-l faces; it is checked before any face is built.

Faces, chain expressions and surjections are immutable named tuples, each
equal only to its own type. A direct call checks its arguments, integer
entries included, and stores each sequence as a tuple; the package's
generators build with `tuple.__new__`, which skips the checks.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from itertools import chain, combinations, permutations, repeat
from math import comb, factorial
from typing import Iterator

from .errors import BudgetExceededError, DomainError

GEQ = ">="
EQ = "="

# Default budget: every call with p <= 9 fits (9! * 2^8 raw expressions).
DEFAULT_MAX_EXPRESSIONS = factorial(9) * 2 ** 8


class _Value:
    """Mixin for the named-tuple value types: an object equals only an
    object of its own type, never a bare tuple of the same fields.

    Two limits remain. A tuple subclass of another type on the left, such
    as a lookalike named tuple, runs its own tuple comparison first, so
    `lookalike == value` is True. And `<`, `<=`, `>` and `>=` still compare
    as tuples, across types."""
    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):
        """Build through the validating constructor, so `_replace` checks."""
        return cls(*iterable)


def _integers(values, what: str) -> tuple[int, ...]:
    """The values as a tuple; DomainError unless each is an int, not a bool."""
    values = tuple(values)
    if not all(map(isinstance, values, repeat(int))) or bool in map(type, values):
        raise DomainError(f"{what} must be integers, got {values}")
    return values


class ChainExpression(_Value, namedtuple("ChainExpression", "sigma relations")):
    __slots__ = ()

    def __new__(cls, sigma: tuple[int, ...], relations: tuple[str, ...]):
        sigma, relations = _integers(sigma, "sigma entries"), tuple(relations)
        p = len(sigma)
        if sorted(sigma) != list(range(1, p + 1)):
            raise DomainError(f"sigma must be a permutation of 1..{p}, got {sigma}")
        if len(relations) != p - 1:
            raise DomainError(f"expected {p - 1} relation symbols, got {len(relations)}")
        if any(r not in (GEQ, EQ) for r in relations):
            raise DomainError(f"relation symbols must be {GEQ!r} or {EQ!r}")
        return tuple.__new__(cls, (sigma, relations))

    def text(self) -> str:
        parts = [f"x{self.sigma[0]}"]
        for rel, idx in zip(self.relations, self.sigma[1:]):
            parts.append(rel)
            parts.append(f"x{idx}")
        return "".join(parts)


class OrderedSetPartition(_Value, namedtuple("OrderedSetPartition", "blocks")):
    __slots__ = ()

    def __new__(cls, blocks: tuple[tuple[int, ...], ...]):
        blocks = tuple(map(tuple, blocks))
        indices = _integers(chain.from_iterable(blocks), "block indices")
        if not blocks:
            raise DomainError("a face must have at least one block")
        for block in blocks:
            if not block:
                raise DomainError("blocks must be nonempty")
            if list(block) != sorted(block):
                raise DomainError(f"block indices must ascend, got {block}")
        seen = set(indices)
        if len(seen) != len(indices):
            raise DomainError("blocks must be pairwise disjoint")
        if seen != set(range(1, len(seen) + 1)):
            raise DomainError(f"blocks must cover 1..p exactly, got {sorted(seen)}")
        return tuple.__new__(cls, (blocks,))

    @property
    def ground_size(self) -> int:
        return sum(map(len, self.blocks))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def text(self) -> str:
        """Stable text form, e.g. '{1,2}>={3}'."""
        return GEQ.join("{" + ",".join(str(i) for i in b) + "}" for b in self.blocks)


class Surjection(_Value, namedtuple("Surjection", "map")):
    __slots__ = ()

    def __new__(cls, map: tuple[int, ...]):
        map = _integers(map, "surjection values")
        if not map:
            raise DomainError("surjection must have a nonempty domain")
        k = max(map)
        if min(map) < 1 or set(map) != set(range(1, k + 1)):
            raise DomainError(f"map must attain every value in 1..{k}, got {map}")
        return tuple.__new__(cls, (map,))

    @property
    def codomain_size(self) -> int:
        return max(self.map)


def _check_enumeration_budget(p: int, l: int, max_expressions: int) -> None:
    """Raise unless the p! * C(p-1, l) chain expressions fit the cap."""
    if isinstance(p, bool) or not isinstance(p, int):
        raise DomainError(f"dimension must be an integer, got {p!r}")
    if p < 1:
        raise DomainError(f"dimension must be >= 1, got p={p}")
    if isinstance(l, bool) or not isinstance(l, int):
        raise DomainError(f"codimension must be an integer, got {l!r}")
    if l < 0 or l >= p:
        raise DomainError(f"codimension must satisfy 0 <= l <= p-1, got l={l} for p={p}")
    required = factorial(p) * comb(p - 1, l)
    if required > max_expressions:
        raise BudgetExceededError(
            f"chain-expression enumeration for (p={p}, l={l}) exceeds the "
            f"expression cap", required, max_expressions
        )


def check_every_codimension(p: int, max_expressions: int) -> None:
    """Raise unless every codimension l = 0..p-1 fits the expression cap,
    checked in order of l. Callers that build the faces of the whole
    identity call this before they build the first face."""
    if isinstance(p, bool) or not isinstance(p, int):
        raise DomainError(f"dimension must be an integer, got {p!r}")
    if p < 1:
        raise DomainError(f"dimension must be >= 1, got p={p}")
    for l in range(p):
        _check_enumeration_budget(p, l, max_expressions)


def enumerate_chain_expressions(
    p: int, l: int, max_expressions: int = DEFAULT_MAX_EXPRESSIONS
) -> Iterator[ChainExpression]:
    """Yield all p! * C(p-1, l) chain expressions with exactly l equality
    symbols, in lexicographic order by (sigma, relations)."""
    _check_enumeration_budget(p, l, max_expressions)
    # "=" sorts before ">=", so combinations of EQ positions in
    # lexicographic order give relation tuples in lexicographic order
    relation_tuples = [
        tuple(EQ if i in eq_positions else GEQ for i in range(p - 1))
        for eq_positions in combinations(range(p - 1), l)
    ]
    new = tuple.__new__  # every sigma and relation tuple here is valid
    return (
        new(ChainExpression, (sigma, relations))
        for sigma in permutations(range(1, p + 1))
        for relations in relation_tuples
    )


def canonicalize(expr: ChainExpression) -> OrderedSetPartition:
    """Collapse maximal equality runs into blocks, in chain order."""
    blocks: list[tuple[int, ...]] = []
    run = [expr.sigma[0]]
    for rel, idx in zip(expr.relations, expr.sigma[1:]):
        if rel == EQ:
            run.append(idx)
        else:
            blocks.append(tuple(sorted(run)))
            run = [idx]
    blocks.append(tuple(sorted(run)))
    return OrderedSetPartition(tuple(blocks))


def facet_multiplicities(
    p: int, l: int, max_expressions: int = DEFAULT_MAX_EXPRESSIONS
) -> dict[OrderedSetPartition, int]:
    """Map each canonical face to the number of chain expressions that
    canonicalize to it (the product of block-size factorials)."""
    counts: Counter[OrderedSetPartition] = Counter()
    for expr in enumerate_chain_expressions(p, l, max_expressions):
        counts[canonicalize(expr)] += 1
    return dict(counts)


def _block_sequences(left: tuple[int, ...], k: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every sequence of k nonempty ascending blocks partitioning `left`, in
    lexicographic order: the first blocks are taken in sorted order.

    The sorted (first block, rest) splits of each (indices left, blocks
    left) are built once per call, so every sequence reuses the same block
    tuples instead of building its own; the last two blocks of a sequence
    are one such split."""
    if k == 1:
        return [(left,)]
    splits: dict[tuple[tuple[int, ...], int], list[tuple[tuple[int, ...], ...]]] = {}
    sequences: list[tuple[tuple[int, ...], ...]] = []
    # Depth first, each node's children pushed in reverse, so sequences
    # come out in order.
    stack = [(left, k, ())]
    while stack:
        left, k, prefix = stack.pop()
        pairs = splits.get((left, k))
        if pairs is None:
            pairs = splits[left, k] = [
                (first, tuple(i for i in left if i not in first))
                for first in sorted(
                    first
                    for size in range(1, len(left) - k + 2)
                    for first in combinations(left, size)
                )
            ]
        if k == 2:
            sequences.extend(map(prefix.__add__, pairs))
        else:
            stack.extend((rest, k - 1, prefix + (first,)) for first, rest in reversed(pairs))
    return sequences


def enumerate_facets(
    p: int, l: int, max_expressions: int = DEFAULT_MAX_EXPRESSIONS
) -> list[OrderedSetPartition]:
    """All distinct codimension-l faces, generated in lexicographic order of
    block sequence."""
    _check_enumeration_budget(p, l, max_expressions)
    # Each face replaces its block sequence in place, so no second list of
    # the codimension is held.
    faces = _block_sequences(tuple(range(1, p + 1)), p - l)
    new = tuple.__new__  # every block sequence here is a valid face
    for i, blocks in enumerate(faces):
        faces[i] = new(OrderedSetPartition, (blocks,))
    return faces


def facet_to_surjection(facet: OrderedSetPartition) -> Surjection:
    """Send every index in block i to value i (blocks numbered from 1)."""
    p = facet.ground_size
    values = [0] * p
    for i, block in enumerate(facet.blocks, start=1):
        for idx in block:
            values[idx - 1] = i
    return Surjection(tuple(values))


def surjection_to_facet(surjection: Surjection) -> OrderedSetPartition:
    """Block i is the preimage of value i."""
    k = surjection.codomain_size
    blocks = tuple(
        tuple(i for i, v in enumerate(surjection.map, start=1) if v == value)
        for value in range(1, k + 1)
    )
    return OrderedSetPartition(blocks)
