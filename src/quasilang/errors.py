"""Exception types shared across the package, and the integer check that
raises them on outside input."""


class QuasilangError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(QuasilangError):
    """Input data violates a structural invariant (bad alphabet, non-witness, ...)."""


class PreconditionError(QuasilangError):
    """A documented precondition of an operation does not hold."""


class NoWitnessError(QuasilangError):
    """The requested order relation does not hold, so no witness exists."""


class AmbiguousExpressionError(QuasilangError):
    """A language expression failed the unambiguity certificate.

    Closed generating functions are only emitted for certified expressions;
    callers should fall back to truncated series from the automaton.
    """


class UnsupportedGroupError(QuasilangError):
    """No built-in character table construction applies to this group."""


def require_int(value, field: str, least: int | None = None) -> int:
    """`value` when it is an int (not a bool) of at least `least`; otherwise a
    ValidationError that names `field`."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{field} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValidationError(f"{field} must be at least {least}, got {value}")
    return value
