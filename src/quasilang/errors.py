"""Exception types shared across the package, and the integer, list and
boolean checks that raise them on outside input."""


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


def require_ints(values, field: str, least: int | None = None) -> tuple:
    """`values` as a tuple when every entry passes `require_int`; otherwise
    the ValidationError of its first entry that does not.  The entries are
    scanned once, by type and minimum, and the message is built only on
    failure."""
    values = tuple(values)
    if set(map(type, values)) - {int} or (least is not None and min(values, default=least) < least):
        for v in values:
            require_int(v, field, least)
    return values


def require_list(value, field: str) -> list:
    """`value` when it is a list; otherwise a ValidationError that names
    `field`, so that a string is not read as its characters."""
    if not isinstance(value, list):
        raise ValidationError(f"{field} must be a list, got {type(value).__name__}")
    return value


def require_bool(value, field: str) -> bool:
    """`value` when it is a bool; otherwise a ValidationError that names
    `field`, so that a string such as "false" is not read as true."""
    if not isinstance(value, bool):
        raise ValidationError(f"{field} must be true or false, got {value!r}")
    return value
