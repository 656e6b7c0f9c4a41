"""Exception hierarchy shared across the toolkit, and its one integer check.

ValidationError covers malformed input and violated preconditions (CLI exit
code 1); NumericalError covers failures of the numerics themselves, such as
rank-deficient systems or solver non-convergence (CLI exit code 2).
"""


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
    """``value`` as an int; a ValidationError naming ``name`` unless whole and >= ``minimum``."""
    try:
        whole = int(value) == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value}")
    return int(value)
