"""Exact-arithmetic verification of the figurate-number facet identity
n^p = sum_{l=0}^{p-1} (-1)^l c_{p,l} F^{p-l}_n, by three independent
routes: closed-form algebra, face-by-face lattice-point enumeration, and
pointwise signed-cover counting."""

from .combinatorics import (
    facet_count,
    figurate,
    rhs_identity,
    stirling2_inclusion_exclusion,
    stirling2_recurrence,
    stirling_identity_eval,
    surjection_count,
)
from .errors import BudgetExceededError, DomainError, ExactnessError
from .facets import (
    ChainExpression,
    OrderedSetPartition,
    Surjection,
    canonicalize,
    enumerate_chain_expressions,
    enumerate_facets,
    facet_to_surjection,
    surjection_to_facet,
)
from .lattice import (
    LatticePoint,
    count_lattice_points,
    enumerate_points,
    facet_contains,
    point_multiplicity,
)
from .verifier import (
    VerificationReport,
    sweep,
    verify_algebraic,
    verify_geometric,
    verify_pointwise,
)

__all__ = [
    "BudgetExceededError",
    "ChainExpression",
    "DomainError",
    "ExactnessError",
    "LatticePoint",
    "OrderedSetPartition",
    "Surjection",
    "VerificationReport",
    "canonicalize",
    "count_lattice_points",
    "enumerate_chain_expressions",
    "enumerate_facets",
    "enumerate_points",
    "facet_contains",
    "facet_count",
    "facet_to_surjection",
    "figurate",
    "point_multiplicity",
    "rhs_identity",
    "stirling2_inclusion_exclusion",
    "stirling2_recurrence",
    "stirling_identity_eval",
    "surjection_count",
    "surjection_to_facet",
    "sweep",
    "verify_algebraic",
    "verify_geometric",
    "verify_pointwise",
]
