"""Exceptions shared across the package, its one argument check, and the
default caps, their refusals and the route names, which the CLI's parser
and the routes' signatures need before any layer is loaded."""

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
    if value < _PRINTABLE:
        return str(value)
    return f"at least 2^{value.bit_length() - 1}"


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
