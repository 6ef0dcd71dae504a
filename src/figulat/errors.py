"""Exceptions shared across the package, its one argument check, and the
default caps, their refusals and the route names, which the CLI's parser
and the routes' signatures need before any layer is loaded. Every check of
a cap, and every refusal of a need over its cap, is made here."""
from math import comb, factorial, lgamma, log, log2

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
# The base-2 logarithm of _PRINTABLE. A logarithm of a need or a cap is off
# by a few units in its last place (at most 7e-16 of itself for the
# expression needs up to p = 20,000), far less than _ROUNDING of itself. A
# need whose logarithm is nearer than that to a bound it is compared with,
# or to an integer, is built.
_LOG2_PRINTABLE = 4299 * log2(10)
_ROUNDING = 1e-12


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
    """An enumeration would exceed its configured resource budget. The
    need `required` is exact. One too long to print may be given as the
    function that builds it, with `bits`, its bit length less one, for the
    message; it is then built when `required` is first read."""

    def __init__(self, message: str, required, budget: int, bits: int | None = None):
        need = _size(required) if bits is None else f"at least 2^{bits}"
        super().__init__(f"{message}: needs {need}, budget is {_size(budget)}")
        self._required = required
        self.budget = budget

    @property
    def required(self) -> int:
        if callable(self._required):
            self._required = self._required()
        return self._required


class ExactnessError(ArithmeticError):
    """An internal division that must be exact left a remainder."""


def check_cap(template: str, cap: int) -> None:
    """Raise DomainError, `template` formatted, unless the cap is an int >= 1."""
    if type(cap) is not int or cap < 1:  # an exact int >= 1, the common case, takes one test
        check_integers(template, cap)
        if cap < 1:
            raise DomainError(template.format(cap))


def check_need(log2_need: float, need, cap: int, template: str, *values) -> None:
    """Raise BudgetExceededError if the need exceeds `cap`, formatting its
    message, `template` with the values, only then. `need(*values)` builds
    the need, and `log2_need` is its base-2 logarithm, rounded. The need is
    compared with the cap from the logarithms, and a need of 4,300 digits
    or more has its size stated from its logarithm too; it is built only
    to refuse a need short enough to print, or where its logarithm lies
    within rounding error of the cap's or of an integer."""
    error = _ROUNDING * log2_need
    log2_cap = log2(cap)
    if log2_need < log2_cap - error:
        return
    if (log2_need < log2_cap + error or log2_need < _LOG2_PRINTABLE + error
            or abs(log2_need - round(log2_need)) <= error):
        required = need(*values)
        if required > cap:
            raise BudgetExceededError(template.format(*values), required, cap)
    else:
        raise BudgetExceededError(template.format(*values), lambda: need(*values), cap,
                                  int(log2_need))


def _expressions(p: int, l: int) -> int:
    """The p! * C(p-1, l) chain expressions of codimension l."""
    return factorial(p) * comb(p - 1, l)


def check_expressions(p: int, max_expressions: int, l: int | None = None) -> None:
    """Raise unless p, l and the cap are valid, in that order, and the
    p! * C(p-1, l) chain expressions of codimension l fit the cap; without
    l, those of every codimension l = 0..p-1, checked in order of l. What
    builds the faces of the whole identity checks them all before its
    first face."""
    check_integers("dimension must be an integer, got {!r}", p)
    if p < 1:
        raise DomainError(f"dimension must be >= 1, got p={p}")
    if l is not None:
        check_integers("codimension must be an integer, got {!r}", l)
        if l < 0 or l >= p:
            raise DomainError(f"codimension must satisfy 0 <= l <= p-1, got l={l} for p={p}")
    check_cap(EXPRESSION_CAP, max_expressions)
    # ln(p! (p-1)!); each need divides it by l! (p-1-l)!.
    top = lgamma(p + 1) + lgamma(p)
    for l in range(p) if l is None else (l,):
        check_need((top - lgamma(l + 1) - lgamma(p - l)) / log(2), _expressions, max_expressions,
                   "chain-expression enumeration for (p={}, l={}) exceeds the expression cap", p, l)
