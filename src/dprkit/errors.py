"""Exception hierarchy shared across the toolkit, and its integer and real checks.

ValidationError covers malformed input and violated preconditions (CLI exit
code 1); NumericalError covers failures of the numerics themselves, such as
rank-deficient systems or solver non-convergence (CLI exit code 2).
"""

import math
import numbers

import numpy as np


class DprError(Exception):
    pass


class ValidationError(DprError):
    pass


class NumericalError(DprError):
    pass


class RankDeficiencyError(NumericalError):
    pass


class ConvergenceError(NumericalError):
    pass


def require_int(name: str, value, minimum: int) -> int:
    """``value`` as an int; a ValidationError naming ``name`` unless whole, >= ``minimum``
    and not a bool (``True == 1`` is no count)."""
    try:
        whole = int(value) == value and not isinstance(value, (bool, np.bool_))
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value}")
    return int(value)


def as_real(value) -> float:
    """``value`` as a float; NaN unless a real number and not a bool (np.bool_ is no Real)."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return float(value) if real else math.nan
