"""Shared exception types."""

from __future__ import annotations


class UnitfracError(Exception):
    """Base class for all package-specific errors."""


class InputError(UnitfracError, ValueError):
    """Raised when caller-supplied data is malformed or out of range."""


class IntegralityError(UnitfracError, ArithmeticError):
    """A quotient parameter that was expected to be an integer is not.

    Carries the parameter name, the offending numerator/denominator pair,
    and the tuple that produced it, so callers can report the finding.
    """

    def __init__(self, param: str, numerator: int, denominator: int,
                 denominators: tuple = ()):  # type: ignore[type-arg]
        self.param = param
        self.numerator = numerator
        self.denominator = denominator
        self.denominators = tuple(denominators)
        msg = "%s = %d/%d is not an integer" % (param, numerator, denominator)
        if denominators:
            msg += " for denominators %s" % (tuple(denominators),)
        super().__init__(msg)


class InvariantError(UnitfracError, RuntimeError):
    """An internal invariant that should hold for valid inputs was violated."""


class UnclearedDenominatorError(InputError, ArithmeticError):
    """Combining inequalities left a fractional coefficient uncleared."""


def check_integer(value, name: str, least: int | None = None,
                  most: int | None = None) -> int:
    """`value` if an int, not a bool, in [least, most]; else InputError."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (least is not None and value < least)
            or (most is not None and value > most)):
        bounds = " and ".join("%s %d" % (op, bound) for op, bound
                              in ((">=", least), ("<=", most))
                              if bound is not None)
        raise InputError("%s must be an integer%s, got %r"
                         % (name, bounds and " " + bounds, value))
    return value
