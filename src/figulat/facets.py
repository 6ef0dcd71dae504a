"""Faces of the order decomposition of the p-cube.

A face is an ordered set partition of {1..p}: blocks of indices with equal
coordinates, block values weakly decreasing in block order; codimension l
means p-l blocks. Faces are built directly, each once, already in sorted
order of their block sequences. Partitions into k blocks are in bijection
with surjections {1..p} -> {1..k}, given as plain tuples of values.

The paper counts the codimension-l faces as collapsed chain expressions,
p! * C(p-1, l) of them; collapsing them all is
`oracles.oracle_collapsed_faces`, the brute-force reference. The expression
cap bounds that same count, and is checked before any face is built.

Faces are immutable named tuples that compare and hash like their bare
tuples, as the verifier's reports do. A direct call checks its arguments,
integer entries included, and stores each sequence as a tuple; `_replace`
checks through the same call. The package's generators build with
`tuple.__new__`, which skips the checks.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import chain, combinations
from math import comb, factorial

from .errors import DEFAULT_MAX_EXPRESSIONS, BudgetExceededError, DomainError, check_integers

_EXPRESSION_CAP = "expression cap must be an integer >= 1, got {!r}"


class OrderedSetPartition(namedtuple("OrderedSetPartition", "blocks")):
    __slots__ = ()

    def __new__(cls, blocks: tuple[tuple[int, ...], ...]):
        blocks = tuple(map(tuple, blocks))
        indices = tuple(chain.from_iterable(blocks))
        check_integers("block indices must be integers, got {values}", *indices)
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

    @classmethod
    def _make(cls, iterable):
        """Build through the validating constructor, so `_replace` checks."""
        return cls(*iterable)

    @property
    def ground_size(self) -> int:
        return sum(map(len, self.blocks))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def text(self) -> str:
        """Stable text form, e.g. '{1,2}>={3}'."""
        return ">=".join("{" + ",".join(str(i) for i in b) + "}" for b in self.blocks)


def _check_enumeration_budget(p: int, l: int, max_expressions: int) -> None:
    """Raise unless the p! * C(p-1, l) chain expressions fit the cap."""
    check_integers("dimension must be an integer, got {!r}", p)
    if p < 1:
        raise DomainError(f"dimension must be >= 1, got p={p}")
    check_integers("codimension must be an integer, got {!r}", l)
    if l < 0 or l >= p:
        raise DomainError(f"codimension must satisfy 0 <= l <= p-1, got l={l} for p={p}")
    check_integers(_EXPRESSION_CAP, max_expressions)
    if max_expressions < 1:
        raise DomainError(_EXPRESSION_CAP.format(max_expressions))
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
    _check_enumeration_budget(p, 0, max_expressions)  # checks p first
    for l in range(1, p):
        _check_enumeration_budget(p, l, max_expressions)


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


def facet_to_surjection(facet: OrderedSetPartition) -> tuple[int, ...]:
    """The values of the surjection that sends every index in block i to
    i (blocks numbered from 1)."""
    values = [0] * facet.ground_size
    for i, block in enumerate(facet.blocks, start=1):
        for idx in block:
            values[idx - 1] = i
    return tuple(values)
