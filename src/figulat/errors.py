"""Exceptions shared across the package, its one argument check, and the
default caps, their refusals and the route names, which the CLI's parser
and the routes' signatures need before any layer is loaded. Every check of
a cap, and every refusal of a need over its cap, is made here."""
from math import comb, factorial

# Default budgets: every face enumeration with p <= 9 fits the expression
# cap (9! * 2^8 raw expressions), and a cube scan or one face's point
# enumeration stops at the point cap.
DEFAULT_MAX_EXPRESSIONS = 362_880 * 2 ** 8
DEFAULT_MAX_POINTS = 10 ** 7
ROUTES = ("algebraic", "geometric", "pointwise")
EXPRESSION_CAP = "expression cap must be an integer >= 1, got {!r}"
POINT_CAP = "point cap must be an integer >= 1, got {!r}"

# Below this, an int prints in decimal: Python's default limit on int-to-text
# conversion is 4,300 digits, and printing is quadratic in the digits.
_PRINTABLE = 10 ** 4299


def _size(value: int) -> str:
    """The value in decimal, or, past 4,299 digits, a power-of-two bound."""
    return str(value) if value < _PRINTABLE else f"at least 2^{value.bit_length() - 1}"


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


def check_integers(template: str, *values) -> None:
    """Raise DomainError unless every value is an int and none is a bool.
    The message is `template` formatted with the values, each by position
    and all as the tuple `values`; it is built only on failure."""
    for value in values:
        # An exact int, the common case, takes one test.
        if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
            raise DomainError(template.format(*values, values=values))


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its configured resource budget."""

    def __init__(self, message: str, required: int, budget: int):
        super().__init__(f"{message}: needs {_size(required)}, budget is {_size(budget)}")
        self.required = required
        self.budget = budget


class ExactnessError(ArithmeticError):
    """An internal division that must be exact left a remainder."""


def check_cap(template: str, cap: int) -> None:
    """Raise DomainError, `template` formatted, unless the cap is an int >= 1."""
    if type(cap) is not int or cap < 1:  # an exact int >= 1, the common case, takes one test
        check_integers(template, cap)
        if cap < 1:
            raise DomainError(template.format(cap))


def check_need(required: int, cap: int, template: str, *values) -> None:
    """Raise BudgetExceededError if `required` exceeds `cap`, formatting its message only then."""
    if required > cap:
        raise BudgetExceededError(template.format(*values), required, cap)


def _check_enumeration_budget(p: int, l: int | None, max_expressions: int) -> None:
    """Raise unless p, l and the cap are valid, in that order, and the p! * C(p-1, l)
    chain expressions fit the cap; with l None, those of each l = 0..p-1 in turn."""
    check_integers("dimension must be an integer, got {!r}", p)
    if p < 1:
        raise DomainError(f"dimension must be >= 1, got p={p}")
    if l is not None:
        check_integers("codimension must be an integer, got {!r}", l)
        if l < 0 or l >= p:
            raise DomainError(f"codimension must satisfy 0 <= l <= p-1, got l={l} for p={p}")
    check_cap(EXPRESSION_CAP, max_expressions)
    p_factorial = factorial(p)
    for l in range(p) if l is None else (l,):
        check_need(p_factorial * comb(p - 1, l), max_expressions,
                   "chain-expression enumeration for (p={}, l={}) exceeds the expression cap", p, l)


def check_every_codimension(p: int, max_expressions: int) -> None:
    """Raise unless every codimension l = 0..p-1 fits the expression cap,
    checked in order of l. Callers that build the faces of the whole
    identity call this before they build the first face."""
    _check_enumeration_budget(p, None, max_expressions)
