"""Exception hierarchy shared across the package, ``require_int``, the one
check of an integer argument, and ``_shown``, the one way a message prints a
caller's value.

Every library failure is a ``DimspecError``, and its class is its exit code:
``InvalidParameterError`` (exit 1) rejects the caller's input, its ``code``
naming the kind; ``NoConvergenceError`` and a bare ``DimspecError``, a
broken internal invariant, exit 2."""

from __future__ import annotations


class DimspecError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(DimspecError):
    """Caller supplied parameters outside an operation's domain.

    Carries a short machine-readable ``code`` alongside the human message:
    the code, not a subclass, names the kind ("out-of-range", "gamma-pole",
    "divergent", ...).
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class NoConvergenceError(DimspecError):
    """A numerical search failed to converge or to bracket its target."""


def _shown(value) -> str:
    """``repr(value)``, except that an int too long for ``repr`` (past
    ``sys.get_int_max_str_digits()`` digits) shows as its bit length."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            sign = "a negative" if value < 0 else "an"
            return f"{sign} int of {value.bit_length()} bits"
        return f"a {type(value).__name__} too long to print"


def require_int(
    name: str, value, lo=None, hi=None, code="out-of-range", message="need {bound}, got {value}"
) -> int:
    """``value``, if it is an int (not a bool) in [lo, hi], a None bound being
    open. Otherwise raises InvalidParameterError: coded ``non-integer`` for
    any other type, and ``code`` out of range, with ``message`` formatted from
    name, value, lo, hi and bound, the side it falls outside ("n <= 10000")."""
    if type(value) is not int:
        raise InvalidParameterError(
            "non-integer", f"{name} must be an integer, got {_shown(value)}"
        )
    if lo is not None and value < lo:
        bound = f"{name} >= {lo}"
    elif hi is not None and value > hi:
        bound = f"{name} <= {hi}"
    else:
        return value
    raise InvalidParameterError(
        code, message.format(name=name, value=_shown(value), lo=lo, hi=hi, bound=bound)
    )
