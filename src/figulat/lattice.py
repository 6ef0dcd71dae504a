"""Lattice-point geometry of the cube faces: per-face point enumeration,
and the signed cover multiplicity of a point.

A face is the set {x : x_i >= x_j for every relation its chain forces},
and a point lacks relation (i, j) exactly when x_i < x_j. So a face
contains a point iff it forces none of the relations the point lacks.
The face index holds the faces' relations bit-sliced, one int of faces
per relation r = i*p + j on indices i+1 and j+1, so a point tests a
machine word of faces at a time. It is built from the faces'
first-block recurrence, with no face objects.

A point is the plain tuple of its coordinates. The point generators
check their side and cap, then yield the tuples `itertools` builds, with
no check per point; `point_multiplicity` checks the coordinates of the
point a caller gives it. `errors`, the one package module imported here,
holds the budget checks, so the pointwise route never loads `facets`.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import lru_cache, reduce
from itertools import accumulate, combinations, combinations_with_replacement, compress, product
from operator import itemgetter, or_

from .errors import (
    DEFAULT_MAX_EXPRESSIONS, DEFAULT_MAX_POINTS, POINT_CAP, DomainError, check_cap,
    check_every_codimension, check_integers, check_need)


def enumerate_points(
    facet, n: int, max_points: int = DEFAULT_MAX_POINTS
) -> Iterator[tuple[int, ...]]:
    """Yield the lattice points of the face, each once. Read from the last
    block to the first, the block values weakly increase: they are the
    size-k multisets of {0..n-1}, yielded in lexicographic order."""
    check_integers("side must be an integer, got {!r}", n)
    if n < 1:
        raise DomainError(f"side must be >= 1, got {n}")
    check_cap(POINT_CAP, max_points)
    blocks = facet.blocks
    k = len(blocks)
    check_need(n ** k, max_points,
               "point enumeration for a {}-block face at side {} exceeds the point cap", k, n)
    # where[i] is the position, counted from the last block, of the block
    # holding index i + 1. With one index the value tuple is already the
    # coordinate tuple; itemgetter of one index would return a bare value.
    where = [0] * sum(map(len, blocks))
    for position, block in enumerate(reversed(blocks)):
        for idx in block:
            where[idx - 1] = position
    coords_of = itemgetter(*where) if len(where) > 1 else tuple
    # Built in C, with no Python frame and no object but the tuple per point.
    return map(coords_of, combinations_with_replacement(range(n), k))


def cube_points(
    p: int, n: int, max_points: int = DEFAULT_MAX_POINTS
) -> Iterator[tuple[int, ...]]:
    """All n^p lattice points of the cube, in lexicographic order."""
    check_integers("dimension must be an integer, got {!r}", p)
    if p < 1:
        raise DomainError(f"dimension must be >= 1, got p={p}")
    check_integers("side must be an integer, got {!r}", n)
    if n < 1:
        raise DomainError(f"side must be >= 1, got {n}")
    check_cap(POINT_CAP, max_points)
    check_need(n ** p, max_points, "cube scan for (p={}, n={}) exceeds the point cap", p, n)
    return product(range(n), repeat=p)


def _lacked(point: tuple[int, ...]) -> list[bool]:
    """The relations the point lacks: entry r = i*p + j is True iff
    x_{i+1} < x_{j+1}."""
    return [a < b for a in point for b in point]


def _join(segments: list[tuple[int, int]]) -> int:
    """The (bits, width) segments as one int, the first highest, neighbours joined pass by pass."""
    while len(segments) > 1:
        segments = [(high << width | low, high_width + width) for (high, high_width), (low, width)
                    in zip(segments[::2], segments[1::2] + [(0, 0)])]
    return segments[0][0]


@lru_cache(maxsize=1, typed=True)
def _face_index(
    p: int, max_expressions: int
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The faces of every codimension, numbered in `enumerate_facets`
    order, bit-sliced: the set of each relation bit r = i*p + j, an int
    whose bit f is set iff face f forces x_{i+1} >= x_{j+1}, and each
    codimension's (start, count) span of face numbers. Every codimension's
    budget is checked before any set is built.

    Built one number of blocks k at a time: in that order the faces of s
    indices in k blocks are, for each first block B in sorted order, B
    followed by a face of the other s-|B| indices, relabelled in order, in
    k-1 blocks. Block values weakly decrease, so segment by segment the
    set of a pair (a, b) is all ones if a is in B, all zeros if only b is,
    and otherwise the sub-face's set of the pair's relabelled indices.
    The diagonal sets, r = i*p + i, are 0: every face forces x_i >= x_i,
    but no point lacks it, so `_lacked` never picks them.

    Cached for the last p and expression cap only, since sweeps run
    p-major. Typed, so that a bool cap never reads the entry of an int one
    and skips the cap's check."""
    check_every_codimension(p, max_expressions)
    # Each s's first blocks in reverse order, so that the join puts face 0
    # at bit 0, each with the ranks of the indices among those outside it.
    firsts = {s: sorted(((first, [a - sum(i < a for i in first) for a in range(s)])
                         for size in range(1, s + 1) for first in combinations(range(s), size)),
                        reverse=True)
              for s in range(1, p + 1)}
    # below[s]: the count of the faces of s indices in k-1 blocks, and
    # their sets, by relation a*s + b on indices 0..s-1.
    below = {0: (1, [])}
    sets, counts = [0] * (p * p), []
    for k in range(1, p + 1):
        level = {}
        for s in range(k, p + 1):
            parts = [(first, rank, *below[s - len(first)])
                     for first, rank in firsts[s] if s - len(first) in below]
            level[s] = sum(count for _, _, count, _ in parts), [
                0 if a == b else _join([
                    ((1 << count) - 1 if a in first else 0 if b in first
                     else sub[rank[a] * (s - len(first)) + rank[b]], count)
                    for first, rank, count, sub in parts
                ])
                for a in range(s) for b in range(s)
            ]
        # Codimension p-k goes below the ones already folded in.
        count, top = level[p]
        for r in range(p * p):
            sets[r] = top[r] | sets[r] << count
        counts.append(count)
        below = level
    starts = accumulate(reversed(counts), initial=0)
    return tuple(sets), tuple(zip(starts, reversed(counts)))


def _containing_counts(point: tuple[int, ...], max_expressions: int) -> list[int]:
    """How many faces of each codimension contain the point: all but those
    in the union of the sets of the relations it lacks. The face index,
    and so every budget, comes before the point is encoded."""
    sets, spans = _face_index(len(point), max_expressions)
    outside = reduce(or_, compress(sets, _lacked(point)), 0)
    return [count - (outside >> start & (1 << count) - 1).bit_count() for start, count in spans]


def point_multiplicity(
    point: Sequence[int], *, max_expressions: int = DEFAULT_MAX_EXPRESSIONS
) -> int:
    """Signed cover multiplicity: sum over codimension l of (-1)^l times the
    number of codimension-l faces containing the point. Always 1 for points
    of the cube. The point is any sequence of integer coordinates, a list
    included, and its length is the dimension. Only the order type of the
    coordinates counts, so a point off the cube, with negative coordinates
    say, also has multiplicity 1. A face contains the point iff it forces
    no x_i >= x_j with x_i < x_j; the faces are tested a machine word at a
    time; `max_expressions` is the budget of the face enumeration."""
    point = tuple(point)
    check_integers("coordinates must be integers, got {values}", *point)
    counts = _containing_counts(point, max_expressions)
    return sum(counts[::2]) - sum(counts[1::2])
