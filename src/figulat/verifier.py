"""Three independent verification routes for the identity
n^p = sum_{l=0}^{p-1} (-1)^l c_{p,l} F^{p-l}_n, plus grid sweeps.

The algebraic route uses closed forms only. The geometric route enumerates
every face and counts its lattice points one by one. The pointwise route
checks that every cube point is covered with signed multiplicity 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .combinatorics import facet_count, figurate
from .errors import BudgetExceededError, DomainError
from .facets import DEFAULT_MAX_EXPRESSIONS, check_enumeration_budget, enumerate_facets
from .lattice import DEFAULT_MAX_POINTS, cube_points, enumerate_points, point_multiplicity

ROUTES = ("algebraic", "geometric", "pointwise")


class LTerm(NamedTuple):
    """One codimension's contribution to the alternating sum. A named tuple:
    immutable, and cheap to build once per term."""
    l: int
    facet_count: int
    per_facet_points: int
    signed_term: int


@dataclass(frozen=True)
class VerificationReport:
    p: int
    n: int
    lhs: int
    route: str
    rhs: int
    per_l_terms: tuple[LTerm, ...]
    ok: bool
    points_enumerated: int = 0
    first_failure: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class SkippedCell:
    """A sweep cell that could not run within its resource budget."""
    p: int
    n: int
    route: str
    reason: str


def _validate(p: int, n: int) -> None:
    if p < 1 or n < 1:
        raise DomainError(f"verification requires p >= 1 and n >= 1, got (p={p}, n={n})")


def verify_algebraic(p: int, n: int) -> VerificationReport:
    """Evaluate both sides in closed form."""
    _validate(p, n)
    terms = []
    rhs = 0
    sign = 1
    for l in range(p):
        count, points = facet_count(p, l), figurate(p - l, n)
        signed = sign * count * points
        rhs += signed
        terms.append(LTerm(l, count, points, signed))
        sign = -sign
    lhs = n ** p
    return VerificationReport(p, n, lhs, "algebraic", rhs, tuple(terms), lhs == rhs)


def verify_geometric(
    p: int,
    n: int,
    max_expressions: int = DEFAULT_MAX_EXPRESSIONS,
    max_points: int = DEFAULT_MAX_POINTS,
) -> VerificationReport:
    """Enumerate every face and its lattice points; no closed forms on the
    right-hand side."""
    _validate(p, n)
    terms = []
    rhs = 0
    points_enumerated = 0
    for l in range(p):
        faces = enumerate_facets(p, l, max_expressions)
        counts = (
            sum(1 for _ in enumerate_points(f, n, max_points)) for f in faces
        )
        first = next(counts)
        total = first + sum(counts)
        points_enumerated += total
        signed = (-1) ** l * total
        rhs += signed
        terms.append(LTerm(l, len(faces), first, signed))
    lhs = n ** p
    return VerificationReport(
        p, n, lhs, "geometric", rhs, tuple(terms), lhs == rhs,
        points_enumerated=points_enumerated,
    )


def verify_pointwise(
    p: int,
    n: int,
    max_points: int = DEFAULT_MAX_POINTS,
    max_expressions: int = DEFAULT_MAX_EXPRESSIONS,
) -> VerificationReport:
    """Check that every cube point has signed cover multiplicity 1. The
    cube's budget, then every codimension's, is checked before the scan."""
    _validate(p, n)
    points = cube_points(p, n, max_points)
    for l in range(p):
        check_enumeration_budget(p, l, max_expressions)
    rhs = 0
    ok = True
    first_failure: Optional[tuple[int, ...]] = None
    points_enumerated = 0
    for point in points:
        points_enumerated += 1
        multiplicity = point_multiplicity(point, p, max_expressions)
        rhs += multiplicity
        if multiplicity != 1 and first_failure is None:
            ok = False
            first_failure = point.coords
    lhs = n ** p
    return VerificationReport(
        p, n, lhs, "pointwise", rhs, (), ok and lhs == rhs,
        points_enumerated=points_enumerated, first_failure=first_failure,
    )


SweepCell = Union[VerificationReport, SkippedCell]


def sweep(
    ps: Sequence[int],
    ns: Sequence[int],
    routes: Iterable[str] = ROUTES,
    max_expressions: int = DEFAULT_MAX_EXPRESSIONS,
    max_points: int = DEFAULT_MAX_POINTS,
) -> Iterator[SweepCell]:
    """One cell per (p, n, route), ordered by p, then n, then route, yielded
    as each finishes. Budget failures become SkippedCell entries; the sweep
    never aborts. Unknown routes and p or n below 1 raise at call time."""
    routes = list(routes)
    for route in routes:
        if route not in ROUTES:
            raise DomainError(f"unknown route {route!r}; expected one of {ROUTES}")
    if min(ps, default=1) < 1 or min(ns, default=1) < 1:
        raise DomainError("sweep requires every p >= 1 and every n >= 1")
    ordered_routes = [r for r in ROUTES if r in routes]

    def generate() -> Iterator[SweepCell]:
        for p in ps:
            for n in ns:
                for route in ordered_routes:
                    try:
                        if route == "algebraic":
                            cell = verify_algebraic(p, n)
                        elif route == "geometric":
                            cell = verify_geometric(p, n, max_expressions, max_points)
                        else:
                            cell = verify_pointwise(p, n, max_points, max_expressions)
                    except BudgetExceededError as exc:
                        cell = SkippedCell(p, n, route, str(exc))
                    yield cell

    return generate()
