"""Exception hierarchy (InputError is CLI exit code 2, NumericalError 3); setting checks."""

import math
import numbers


class SampletError(Exception):
    """Base class for all package errors."""


class InputError(SampletError):
    """Invalid or inconsistent user input (bad file, bad shape, bad config)."""


class NumericalError(SampletError):
    """A numerical computation failed or left its accuracy contract."""


class EigenSolverError(NumericalError):
    """Eigenpair residual above tolerance or solver non-convergence."""


class ConditionNumberError(NumericalError):
    """Condition estimate above the allowed cap. Carries the estimate."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


def finite_or_nan(value):
    """value as a float if it is a finite real number, else NaN, so that
    `not finite_or_nan(x) > bound` rejects non-numbers (strings too) and
    non-finite values with the setting's own message."""
    try:
        value = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an int beyond the float range
        return math.nan
    return value if math.isfinite(value) else math.nan


def checked_int(value, message, low=0, high=math.inf):
    """value as an int; InputError(message) unless it is an integral real number
    with low <= value < high. Integral floats such as 8.0 count, as in a
    FunctionalSet's integer fields; booleans, strings, NaN and inf do not, nor
    does an integer beyond the float range (finite_or_nan)."""
    if isinstance(value, bool) or not finite_or_nan(value).is_integer() or int(value) != value:
        raise InputError(message)
    value = int(value)
    if not low <= value < high:
        raise InputError(message)
    return value
