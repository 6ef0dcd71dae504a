"""Faces of the order decomposition of the p-cube.

A face is an ordered set partition of {1..p}: blocks of indices with equal
coordinates, block values weakly decreasing in block order; codimension l
means p-l blocks. `iter_facets` builds them directly, each once and one at
a time, in sorted order of their block sequences; `enumerate_facets` is
its list. Partitions into k blocks are in bijection with surjections
{1..p} -> {1..k}, given as plain tuples of values.

The paper counts the codimension-l faces as collapsed chain expressions,
p! * C(p-1, l) of them; collapsing them all is
`oracles.oracle_collapsed_faces`, the brute-force reference. The expression
cap bounds that same count; `errors`, the one package module imported here,
checks it before any face is built.

Faces are immutable named tuples that compare and hash like their bare
tuples, as the verifier's reports do.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import chain, combinations, repeat

from .errors import DEFAULT_MAX_EXPRESSIONS, DomainError, check_expressions


class OrderedSetPartition(namedtuple("OrderedSetPartition", "blocks")):
    __slots__ = ()

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def text(self) -> str:
        """Stable text form, e.g. '{1,2}>={3}'."""
        return ">=".join("{" + ",".join(str(i) for i in b) + "}" for b in self.blocks)


def _block_sequences(left: tuple[int, ...], k: int):
    """Every sequence of k nonempty ascending blocks partitioning `left`, in
    lexicographic order (first blocks taken in sorted order), in runs: one
    iterable per shared prefix of k - 2 blocks, so chaining them stays in C.

    The sorted (first block, rest) splits of each (indices left, blocks
    left) are built once per call, so every sequence reuses the same block
    tuples instead of building its own; the last two blocks of a sequence
    are one such split."""
    if k == 1:
        yield [(left,)]
        return
    splits: dict[tuple[tuple[int, ...], int], list[tuple[tuple[int, ...], ...]]] = {}
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
            yield map(prefix.__add__, pairs)
        else:
            stack.extend((rest, k - 1, prefix + (first,)) for first, rest in reversed(pairs))


def iter_facets(p: int, l: int, max_expressions: int = DEFAULT_MAX_EXPRESSIONS):
    """Every distinct codimension-l face, one at a time, in lexicographic
    order of block sequence. The arguments and the cap are checked when
    this is called, before the first face is built."""
    check_expressions(p, max_expressions, l)
    sequences = chain.from_iterable(_block_sequences(tuple(range(1, p + 1)), p - l))
    # Every block sequence here is a valid face.
    return map(tuple.__new__, repeat(OrderedSetPartition), zip(sequences))


def enumerate_facets(
    p: int, l: int, max_expressions: int = DEFAULT_MAX_EXPRESSIONS
) -> list[OrderedSetPartition]:
    """The faces of `iter_facets`, as a list."""
    return list(iter_facets(p, l, max_expressions))


def facet_to_surjection(facet: OrderedSetPartition) -> tuple[int, ...]:
    """The values of the surjection that sends every index in block i to
    i (blocks numbered from 1). Raises DomainError unless the blocks are
    nonempty and hold each of 1..p once, p being how many indices they
    hold; an index is read as the number it equals, so `True` reads as 1."""
    blocks = facet.blocks
    values = [0] * sum(map(len, blocks))
    try:
        for i, block in enumerate(blocks, start=1):
            for idx in block:
                if idx < 1:  # values[idx - 1] would count from the end
                    raise IndexError
                values[idx - 1] = i
        # p indices in 1..p leave a 0 only if one repeats, and so one is missing.
        if 0 in values or not all(blocks):
            raise IndexError
    except (IndexError, TypeError):
        raise DomainError(
            f"face blocks must be nonempty and hold each of 1..p once, got {blocks!r}") from None
    return tuple(values)
