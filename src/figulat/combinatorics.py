"""Exact closed-form combinatorics: figurate numbers, Stirling
numbers of the second kind, surjection and facet counts, and both sides of
the cube-decomposition identity.

All arithmetic is exact big-integer arithmetic; nothing here rounds.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from .errors import DomainError, ExactnessError


def figurate(k: int, n: int) -> int:
    """Figurate number F^k_n = C(n+k-1, k): the number of weakly decreasing
    k-tuples with entries in {0..n-1}, i.e. lattice points of a k-simplex of
    side n."""
    if k < 1:
        raise DomainError(f"figurate dimension must be >= 1, got k={k}")
    if n < 1:
        raise DomainError(f"figurate side must be >= 1, got n={n}")
    return comb(n + k - 1, k)


@lru_cache(maxsize=None)
def stirling2_recurrence(m: int, j: int) -> int:
    """Stirling number of the second kind S(m, j) via the triangular
    recurrence S(m,j) = j*S(m-1,j) + S(m-1,j-1). Memoized."""
    if m < 0 or j < 0:
        raise DomainError(f"stirling2 requires nonnegative arguments, got ({m}, {j})")
    if m == 0:
        return 1 if j == 0 else 0
    if j == 0 or j > m:
        return 0
    return j * stirling2_recurrence(m - 1, j) + stirling2_recurrence(m - 1, j - 1)


def stirling2_inclusion_exclusion(m: int, j: int) -> int:
    """S(m, j) by the alternating sum j!*S(m,j) = sum_i (-1)^i C(j,i) (j-i)^m.

    Independent of the recurrence route; used to cross-check it. The final
    division by j! must be exact."""
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


def surjection_count(m: int, j: int) -> int:
    """Number of surjections from an m-set onto a j-set: j! * S(m, j)."""
    if m < 0 or j < 0:
        raise DomainError(f"surjection_count requires nonnegative arguments, got ({m}, {j})")
    return factorial(j) * stirling2_recurrence(m, j)


# (p, row) with row[j - 1] = j! * S(p, j): the face counts of the last p
# asked for, since sweeps run p-major.
_facet_row: tuple[int, list[int]] = (0, [])


def facet_count(p: int, l: int) -> int:
    """Number c_{p,l} of codimension-l faces of the order decomposition of
    the p-cube: (p-l)! * S(p, p-l). The whole row of p is built on the
    first call for that p, with a running factorial; only the last row is
    kept."""
    global _facet_row
    if p < 1:
        raise DomainError(f"dimension must be >= 1, got p={p}")
    if l < 0 or l >= p:
        raise DomainError(f"codimension must satisfy 0 <= l <= p-1, got l={l} for p={p}")
    row_p, row = _facet_row
    if row_p != p:
        # Filled here, not by a helper, so the Stirling recursion starts no
        # deeper than it would for a single count.
        row = []
        j_factorial = 1
        for j in range(1, p + 1):
            j_factorial *= j
            row.append(j_factorial * stirling2_recurrence(p, j))
        _facet_row = (p, row)
    return row[p - l - 1]


def stirling_identity_eval(p: int, x: int) -> int:
    """sum_{j=1}^{p} S(p,j) * x(x-1)...(x-j+1); equals x^p for every
    integer x."""
    if p < 1:
        raise DomainError(f"exponent must be >= 1, got p={p}")
    total = 0
    falling = 1
    for j in range(1, p + 1):
        falling *= x - j + 1
        total += stirling2_recurrence(p, j) * falling
    return total


def rhs_identity(p: int, n: int) -> int:
    """The alternating facet sum sum_{l=0}^{p-1} (-1)^l c_{p,l} F^{p-l}_n;
    equals n^p for all p, n >= 1."""
    if p < 1:
        raise DomainError(f"dimension must be >= 1, got p={p}")
    if n < 1:
        raise DomainError(f"side must be >= 1, got n={n}")
    return sum(
        (-1) ** l * facet_count(p, l) * figurate(p - l, n) for l in range(p)
    )
