"""Exceptions shared across the package."""

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


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its configured resource budget."""

    def __init__(self, message: str, required: int, budget: int):
        super().__init__(f"{message}: needs {_size(required)}, budget is {_size(budget)}")
        self.required = required
        self.budget = budget


class ExactnessError(ArithmeticError):
    """An internal division that must be exact left a remainder."""
