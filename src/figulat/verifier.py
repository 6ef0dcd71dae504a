"""Three independent verification routes for the identity
n^p = sum_{l=0}^{p-1} (-1)^l c_{p,l} F^{p-l}_n, plus grid sweeps.

The algebraic route uses closed forms only. The geometric route enumerates
every face and counts its lattice points one by one. The pointwise route
checks that every cube point is covered with signed multiplicity 1.
Reports, their terms and skipped cells are plain named tuples, each equal
to its bare tuple. Each route imports the layers it runs when it runs, so
a sweep loads only its own.
"""
from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import partial
from itertools import chain, count, repeat, zip_longest
from operator import mul, neg

from .errors import (
    DEFAULT_MAX_EXPRESSIONS, DEFAULT_MAX_POINTS, EXPRESSION_CAP, POINT_CAP, ROUTES,
    BudgetExceededError, DomainError, check_cap, check_expressions, check_integers)


LTerm = namedtuple("LTerm", "l facet_count per_facet_points signed_term")
LTerm.__doc__ = "One codimension's contribution to the alternating sum."

VerificationReport = namedtuple(
    "VerificationReport",
    "p n lhs route rhs per_l_terms ok points_enumerated first_failure",
    defaults=(0, None),
)

SkippedCell = namedtuple("SkippedCell", "p n route reason")
SkippedCell.__doc__ = "A sweep cell that could not run within its resource budget."


def _validate(p: int, n: int) -> None:
    check_integers("verification requires integer p and n, got (p={!r}, n={!r})", p, n)
    if p < 1 or n < 1:
        raise DomainError(f"verification requires p >= 1 and n >= 1, got (p={p}, n={n})")


def _count(items: Iterable) -> int:
    """How many items there are, counted in C. The deque keeps no item, so
    `zip` reuses one result tuple throughout; the items come first in it,
    so the counter is not read past the last item."""
    counter = count()
    deque(zip(items, counter), maxlen=0)
    return next(counter)


def verify_algebraic(p: int, n: int) -> VerificationReport:
    """Evaluate both sides in closed form. Each cell reads one face-count
    row and one figurate column, both indexed by codimension l, and sums
    their signed products with no Python call per term."""
    from .combinatorics import facet_counts, figurates
    _validate(p, n)
    counts, points = facet_counts(p), figurates(p, n)
    signed = list(map(mul, counts, points))
    signed[1::2] = map(neg, signed[1::2])
    rhs = sum(signed)
    # LTerm has no validator, so tuple.__new__ skips no check.
    terms = tuple(map(tuple.__new__, repeat(LTerm), zip(range(p), counts, points, signed)))
    lhs = n ** p
    return VerificationReport(p, n, lhs, "algebraic", rhs, terms, lhs == rhs)


def verify_geometric(
    p: int,
    n: int,
    *,
    max_expressions: int = DEFAULT_MAX_EXPRESSIONS,
    max_points: int = DEFAULT_MAX_POINTS,
) -> VerificationReport:
    """Enumerate every face and its lattice points; no closed forms on the
    right-hand side. Every codimension's budget is checked before the
    first face is built; `max_points` caps one face's enumeration, not the
    cell's total."""
    from .facets import enumerate_facets
    from .lattice import enumerate_points
    _validate(p, n)
    check_expressions(p, max_expressions)
    terms, rhs, points_enumerated = [], 0, 0
    for l in range(p):
        faces = enumerate_facets(p, l, max_expressions)
        points = map(enumerate_points, faces, repeat(n), repeat(max_points))
        first = _count(next(points))
        total = first + _count(chain.from_iterable(points))
        points_enumerated += total
        signed = (-1) ** l * total
        rhs += signed
        terms.append(LTerm(l, len(faces), first, signed))
        # Dropped before the next codimension's faces are built, so one
        # codimension's faces are alive at a time.
        del faces
    lhs = n ** p
    return VerificationReport(
        p, n, lhs, "geometric", rhs, tuple(terms), lhs == rhs,
        points_enumerated=points_enumerated,
    )


def verify_pointwise(
    p: int,
    n: int,
    *,
    max_expressions: int = DEFAULT_MAX_EXPRESSIONS,
    max_points: int = DEFAULT_MAX_POINTS,
) -> VerificationReport:
    """Check that every cube point has signed cover multiplicity 1. The
    cube's budget is checked first; the face index of the first point then
    checks every codimension's before it builds any face."""
    from .lattice import cube_points, point_multiplicity
    _validate(p, n)
    rhs = points_enumerated = 0
    first_failure: tuple[int, ...] | None = None
    for points_enumerated, point in enumerate(cube_points(p, n, max_points), 1):
        multiplicity = point_multiplicity(point, max_expressions=max_expressions)
        rhs += multiplicity
        if multiplicity != 1 and first_failure is None:
            first_failure = point
    lhs = n ** p
    return VerificationReport(
        p, n, lhs, "pointwise", rhs, (), first_failure is None and lhs == rhs,
        points_enumerated=points_enumerated, first_failure=first_failure,
    )


def sweep(
    ps: Iterable[int],
    ns: Iterable[int],
    routes: Iterable[str] = ROUTES,
    max_expressions: int = DEFAULT_MAX_EXPRESSIONS,
    max_points: int = DEFAULT_MAX_POINTS,
) -> Iterator[VerificationReport | SkippedCell]:
    """One cell per (p, n, route), ordered by p, then n, then route, yielded
    as each finishes. Budget failures become SkippedCell entries; the sweep
    never aborts. Unknown routes, bad caps and values a route rejects raise
    at call time, whatever the routes."""
    # An iterator is read once, into a tuple, so the checks do not drain it;
    # a range stays lazy, so a long n range costs no memory.
    ps, ns = (v if isinstance(v, Sequence) else tuple(v) for v in (ps, ns))
    # Built per call, not at import, so a route rebound in this module (as
    # the benchmark's tracer does) is the one that runs.
    budgets = {"max_expressions": max_expressions, "max_points": max_points}
    run = {
        "algebraic": verify_algebraic,
        "geometric": partial(verify_geometric, **budgets),
        "pointwise": partial(verify_pointwise, **budgets),
    }
    routes = list(routes)
    for route in routes:
        if route not in run:
            raise DomainError(f"unknown route {route!r}; expected one of {ROUTES}")
    check_cap(EXPRESSION_CAP, max_expressions)
    check_cap(POINT_CAP, max_points)
    # Checks every p and every n, even when the other sequence is empty.
    for p, n in zip_longest(ps, ns, fillvalue=1):
        _validate(p, n)
    ordered_routes = [r for r in ROUTES if r in routes]

    def generate() -> Iterator[VerificationReport | SkippedCell]:
        for p in ps:
            for n in ns:
                for route in ordered_routes:
                    try:
                        cell = run[route](p, n)
                    except BudgetExceededError as exc:
                        cell = SkippedCell(p, n, route, str(exc))
                    yield cell
                    del cell  # before the next cell runs: one report is alive at a time

    return generate()
