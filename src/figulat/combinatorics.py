"""Exact closed-form combinatorics: figurate numbers, Stirling
numbers of the second kind, and facet counts, which are the surjection
counts. These are the package's only closed forms; the enumeration layers
(`facets`, `lattice`) and the oracles do not import this module.

All arithmetic is exact big-integer arithmetic; nothing here rounds.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from .errors import DomainError, ExactnessError, check_integers


def figurate(k: int, n: int) -> int:
    """Figurate number F^k_n = C(n+k-1, k): the number of weakly decreasing
    k-tuples with entries in {0..n-1}, i.e. lattice points of a k-simplex of
    side n."""
    check_integers("figurate requires integer k and n, got (k={!r}, n={!r})", k, n)
    if k < 1:
        raise DomainError(f"figurate dimension must be >= 1, got k={k}")
    if n < 1:
        raise DomainError(f"figurate side must be >= 1, got n={n}")
    return comb(n + k - 1, k)


def figurates(p: int, n: int) -> list[int]:
    """The figurate column [F^p_n, ..., F^1_n] as a new list: entry l is
    F^{p-l}_n, the points of a codimension-l face of the p-cube at side n.
    Entry 0 is `figurate(p, n)`, so a refusal is `figurate`'s, message and
    all, with p as k; each later entry is stepped from the one before by
    F^{k-1}_n = F^k_n * k / (n+k-1), a division that is always exact."""
    column = [figurate(p, n)]
    for k in range(p, 1, -1):
        column.append(column[-1] * k // (n + k - 1))
    return column


# Stores nothing; kept only as the handle whose cache_info() `bench/layers.py` reads.
@lru_cache(maxsize=0)
def stirling2_recurrence(m: int, j: int) -> int:
    """Stirling number of the second kind S(m, j) = T(m, j) / j!: the
    surjection count T(m, j) is the row entry `facet_count(m, m - j)`, and
    the division is exact."""
    check_integers("stirling2 requires integer arguments, got ({!r}, {!r})", m, j)
    if m < 0 or j < 0:
        raise DomainError(f"stirling2 requires nonnegative arguments, got ({m}, {j})")
    if 1 <= j <= m:
        return facet_count(m, m - j) // factorial(j)
    return 1 if j == m == 0 else 0


def stirling2_inclusion_exclusion(m: int, j: int) -> int:
    """S(m, j) by the alternating sum j!*S(m,j) = sum_i (-1)^i C(j,i) (j-i)^m.

    Independent of the recurrence route; used to cross-check it. The final
    division by j! must be exact."""
    check_integers("stirling2 requires integer arguments, got ({!r}, {!r})", m, j)
    if m < 0:
        raise DomainError(f"stirling2 requires nonnegative m, got {m}")
    if j < 1:
        raise DomainError(f"inclusion-exclusion route requires j >= 1, got {j}")
    total = sum((-1) ** i * comb(j, i) * (j - i) ** m for i in range(j + 1))
    quotient, remainder = divmod(total, factorial(j))
    if remainder:
        raise ExactnessError(
            f"alternating sum {total} is not divisible by {j}! for (m={m}, j={j})"
        )
    return quotient


# (p, row) with row[j - 1] = T(p, j) = j! * S(p, j): the face counts, and
# so the surjection counts, of the last p asked for, since sweeps run
# p-major. (0, []) means no row.
_facet_row: tuple[int, list[int]] = (0, [])


def facet_count(p: int, l: int) -> int:
    """Number c_{p,l} of codimension-l faces of the order decomposition of
    the p-cube: (p-l)! * S(p, p-l), the surjection count T(p, p-l). The
    row of p is stepped by T(m, j) = j * (T(m-1, j) + T(m-1, j-1)), on
    from the kept row when p is larger, else from T(1, .) = [1]. Only the
    last row is kept, and nothing recurses; every reader of the kept row
    reaches it through this function's checks."""
    global _facet_row
    check_integers("facet_count requires integer p and l, got (p={!r}, l={!r})", p, l)
    if p < 1:
        raise DomainError(f"dimension must be >= 1, got p={p}")
    if l < 0 or l >= p:
        raise DomainError(f"codimension must satisfy 0 <= l <= p-1, got l={l} for p={p}")
    row_p, row = _facet_row
    if row_p != p:
        if not 1 <= row_p < p:
            row_p, row = 1, [1]
        for m in range(row_p + 1, p + 1):
            # T(m-1, 0) = T(m-1, m) = 0 pad the row at both ends.
            row = [j * (a + b) for j, a, b in zip(range(1, m + 1), row + [0], [0] + row)]
        _facet_row = (p, row)
    return row[p - l - 1]


def facet_counts(p: int) -> list[int]:
    """The face-count row [c_{p,0}, ..., c_{p,p-1}] as a new list, in order
    of codimension l: the kept row of p reversed. One call of
    `facet_count(p, 0)` checks p and steps the kept row to p, so there is
    no second row, recurrence or check."""
    facet_count(p, 0)
    return _facet_row[1][::-1]
