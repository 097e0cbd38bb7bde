"""Sign-and-log representation for reals spanning hundreds of decades.

Ground-state energies handled by this library range from O(0.1) hartree down
past 1e-150, and intermediates of the closed-form evaluators exceed 1e+100.
The evaluators therefore do their algebra on ``ln|x|`` as plain floats and
wrap each result once in a ``SignedLogReal``: the value and wire type that
keeps the sign apart from the log magnitude. Conversion to ordinary floats
happens only at the edges (display, serialization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_LN10 = math.log(10.0)

# math.exp overflows (raises) just above this argument
_EXP_OVERFLOW = 709.78


@dataclass(frozen=True)
class SignedLogReal:
    """A real number stored as a sign in {-1, 0, +1} and ln of its magnitude.

    ``lnmag`` is meaningless when ``sign == 0`` and is pinned to 0.0 there so
    that equality and hashing stay well defined.
    """

    sign: int
    lnmag: float = 0.0

    def __post_init__(self) -> None:
        # an exact int: a bool or a float sign compares equal to 1 but would
        # be written back as true or 1.0
        if type(self.sign) is not int or self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be the int -1, 0 or +1, got {self.sign!r}")
        if self.sign == 0:
            if self.lnmag != 0.0:
                raise ValueError("zero must carry lnmag == 0.0")
        elif not math.isfinite(self.lnmag):
            raise ValueError(f"lnmag must be finite, got {self.lnmag!r}")

    @classmethod
    def from_float(cls, x: float) -> "SignedLogReal":
        if x == 0.0:
            return _ZERO
        if not math.isfinite(x):
            raise ValueError(f"cannot represent {x!r}")
        return cls(1 if x > 0.0 else -1, math.log(abs(x)))

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
        digits, matching the precision of the embedded reference energies.
        """
        if self.sign == 0:
            return "0"
        l10 = self.lnmag / _LN10
        e10 = math.floor(l10)
        mantissa = 10.0 ** (l10 - e10)
        mantissa = round(mantissa, sig_digits - 1)
        if mantissa >= 10.0:
            mantissa /= 10.0
            e10 += 1
        body = f"{mantissa:.{sig_digits - 1}f}e{e10:+03d}"
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
