"""Sign-and-log representation for reals spanning hundreds of decades.

Ground-state energies handled by this library range from O(0.1) hartree down
past 1e-150, and intermediates of the closed-form evaluators exceed 1e+100.
All multiplicative arithmetic therefore runs on ``ln|x|`` with the sign kept
separately; conversion to ordinary floats happens only at the edges
(display, serialization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_float(cls, x: float) -> "SignedLogReal":
        if x == 0.0:
            return _ZERO
        if not math.isfinite(x):
            raise ValueError(f"cannot represent {x!r}")
        return cls(1 if x > 0.0 else -1, math.log(abs(x)))

    @classmethod
    def from_ln(cls, lnmag: float, sign: int = 1) -> "SignedLogReal":
        return cls(sign, lnmag)

    @classmethod
    def zero(cls) -> "SignedLogReal":
        return _ZERO

    @classmethod
    def one(cls) -> "SignedLogReal":
        return _ONE

    # -- conversion --------------------------------------------------------

    def to_float(self) -> float:
        """Nearest ordinary float; overflows saturate to +/-inf, underflows to 0.0."""
        if self.sign == 0:
            return 0.0
        if self.lnmag > _EXP_OVERFLOW:
            return math.inf * self.sign
        return self.sign * math.exp(self.lnmag)

    def __float__(self) -> float:
        return self.to_float()

    def log10_abs(self) -> float:
        """log10 of the magnitude; requires a nonzero value."""
        if self.sign == 0:
            raise ValueError("log10 of zero")
        return self.lnmag / _LN10

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

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "SignedLogReal":
        if self.sign == 0:
            return self
        return SignedLogReal(-self.sign, self.lnmag)

    def __abs__(self) -> "SignedLogReal":
        if self.sign == -1:
            return SignedLogReal(1, self.lnmag)
        return self

    def __mul__(self, other: "SignedLogReal") -> "SignedLogReal":
        if not isinstance(other, SignedLogReal):
            return NotImplemented
        s = self.sign * other.sign
        if s == 0:
            return _ZERO
        return SignedLogReal(s, self.lnmag + other.lnmag)

    def __truediv__(self, other: "SignedLogReal") -> "SignedLogReal":
        if not isinstance(other, SignedLogReal):
            return NotImplemented
        if other.sign == 0:
            raise ZeroDivisionError("division by signed-log zero")
        if self.sign == 0:
            return _ZERO
        return SignedLogReal(self.sign * other.sign, self.lnmag - other.lnmag)

    def pow(self, exponent: int | float | Fraction) -> "SignedLogReal":
        """Raise to a power; non-integer exponents require a positive base."""
        if self.sign == 0:
            if exponent > 0:
                return _ZERO
            raise ZeroDivisionError("zero to a non-positive power")
        if isinstance(exponent, int):
            sign = self.sign if exponent % 2 else (1 if self.sign else 0)
            return SignedLogReal(sign if self.sign == -1 else 1, self.lnmag * exponent)
        if self.sign == -1:
            raise ValueError("fractional power of a negative value")
        return SignedLogReal(1, self.lnmag * float(exponent))

    __pow__ = pow

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

    def __sub__(self, other: "SignedLogReal") -> "SignedLogReal":
        if not isinstance(other, SignedLogReal):
            return NotImplemented
        return self.__add__(-other)

    # -- ordering ----------------------------------------------------------

    def _key(self) -> tuple[int, float]:
        # (sign, sign * lnmag) sorts by actual value: for negatives a larger
        # magnitude means a smaller value, which the sign flip captures.
        return (self.sign, self.sign * self.lnmag)

    def __lt__(self, other: "SignedLogReal") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "SignedLogReal") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "SignedLogReal") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "SignedLogReal") -> bool:
        return self._key() >= other._key()

    def __repr__(self) -> str:
        if self.sign == 0:
            return "SignedLogReal(0)"
        return f"SignedLogReal({self.sign:+d}, lnmag={self.lnmag!r})"


_ZERO = SignedLogReal(0, 0.0)
_ONE = SignedLogReal(1, 0.0)
