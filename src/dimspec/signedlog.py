"""Sign-and-log representation for reals spanning hundreds of decades.

Ground-state energies handled by this library range from O(0.1) hartree down
past 1e-150, and intermediates of the closed-form evaluators exceed 1e+100.
The evaluators therefore do their algebra on ``ln|x|`` as plain floats and
wrap each result once in a ``SignedLogReal``: the value and wire type that
keeps the sign apart from the log magnitude. Conversion to ordinary floats
happens only at the edges (display, serialization).
"""

from __future__ import annotations

__all__ = ["SignedLogReal"]

import math
from dataclasses import dataclass

from .errors import InvalidParameterError, _shown

_LN10 = math.log(10.0)

# math.exp overflows (raises) just above this argument
_EXP_OVERFLOW = 709.78


@dataclass(frozen=True, slots=True)
class SignedLogReal:
    """A real number stored as a sign in {-1, 0, +1} and ln of its magnitude.

    ``lnmag`` is meaningless when ``sign == 0`` and is pinned to 0.0 there so
    that equality and hashing stay well defined. Any other sign, or a
    non-finite lnmag, raises InvalidParameterError.
    """

    sign: int
    lnmag: float = 0.0

    def __post_init__(self) -> None:
        # an exact int: a bool or a float sign compares equal to 1 but would
        # be written back as true or 1.0
        if type(self.sign) is not int or self.sign not in (-1, 0, 1):
            raise InvalidParameterError(
                "bad-sign", f"sign must be -1, 0 or +1, got {_shown(self.sign)}"
            )
        try:  # a non-number, or an int past the float range, is not finite
            finite = math.isfinite(self.lnmag)
        except (TypeError, OverflowError):
            finite = False
        if not finite or (self.sign == 0 and self.lnmag != 0.0):
            raise InvalidParameterError(
                "bad-lnmag", f"lnmag must be finite, and 0.0 at sign 0; got {_shown(self.lnmag)}"
            )

    @classmethod
    def from_float(cls, x: float) -> "SignedLogReal":
        if x == 0.0:
            return _ZERO
        try:  # cls rejects the lnmag of an infinite or nan x
            return cls(1 if x > 0.0 else -1, math.log(abs(x)))
        except (TypeError, OverflowError, InvalidParameterError):
            raise InvalidParameterError(
                "unrepresentable", f"cannot represent {_shown(x)}"
            ) from None

    def to_float(self) -> float:
        """Nearest ordinary float; overflows saturate to +/-inf, underflows to 0.0."""
        if self.sign == 0:
            return 0.0
        if self.lnmag > _EXP_OVERFLOW:
            return math.inf * self.sign
        return self.sign * math.exp(self.lnmag)

    def to_decimal(self, sig_digits: int = 3) -> str:
        """Scientific-notation string like ``-4.41e-97``.

        The mantissa is rounded half-to-even at ``sig_digits`` significant
        digits, matching the precision of the embedded reference energies; a
        float holds 17 at most, and any other ``sig_digits`` is rejected.
        """
        # one expression, no call: this runs once per rendered record
        if not (type(sig_digits) is int and 1 <= sig_digits <= 17):
            raise InvalidParameterError(
                "bad-digits", f"sig_digits must be an int in [1, 17], got {_shown(sig_digits)}"
            )
        if self.sign == 0:
            return "0"
        l10 = self.lnmag / _LN10
        e10 = math.floor(l10)
        mantissa = 10.0 ** (l10 - e10)
        mantissa = round(mantissa, sig_digits - 1)
        if mantissa >= 10.0:
            mantissa /= 10.0
            e10 += 1
        # printf-style: the same bytes as the format spec "{:.Nf}e{:+03d}", in one call
        body = "%.*fe%+03d" % (sig_digits - 1, mantissa, e10)
        return ("-" + body) if self.sign < 0 else body

    # only benchmarks/probes.py reaches these two (add_ns, mul_ns): they go with those probes

    def __mul__(self, other: "SignedLogReal") -> "SignedLogReal":
        if not isinstance(other, SignedLogReal):
            return NotImplemented
        s = self.sign * other.sign
        if s == 0:
            return _ZERO
        return SignedLogReal(s, self.lnmag + other.lnmag)

    def __add__(self, other: "SignedLogReal") -> "SignedLogReal":
        if not isinstance(other, SignedLogReal):
            return NotImplemented
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        hi, lo = (self, other) if self.lnmag >= other.lnmag else (other, self)
        if self.sign == other.sign:
            return SignedLogReal(
                self.sign, hi.lnmag + math.log1p(math.exp(lo.lnmag - hi.lnmag))
            )
        # opposite signs: magnitude difference, larger magnitude wins the sign
        ratio = math.exp(lo.lnmag - hi.lnmag)
        if ratio >= 1.0:  # magnitudes agree to rounding; exact cancellation
            return _ZERO
        return SignedLogReal(hi.sign, hi.lnmag + math.log1p(-ratio))

    def __repr__(self) -> str:
        if self.sign == 0:
            return "SignedLogReal(0)"
        return f"SignedLogReal({self.sign:+d}, lnmag={self.lnmag!r})"


_ZERO = SignedLogReal(0, 0.0)
