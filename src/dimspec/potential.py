"""Generalized Coulomb coefficients and half-integer-lattice gamma values.

Integer D and m keep every gamma argument on the positive half-integer
lattice, where the recurrence Gamma(x+1) = x Gamma(x) anchored at
Gamma(1) = 1 and Gamma(1/2) = sqrt(pi) is exact. Accumulating the factors
in log space removes both the overflow risk and any series-approximation
error; no Stirling or Lanczos fit is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import GammaPoleError, InvalidParameterError
from .model import PotentialSpec
from .signedlog import SignedLogReal

LN_PI = math.log(math.pi)
LN_SQRT_PI = 0.5 * LN_PI
LN_2 = math.log(2.0)
LN_4 = math.log(4.0)

# Largest dimension alpha_coefficient and alpha_m1_closed_form accept. Their
# gamma factors are summed term by term, so the cost grows linearly in D:
# about 1 ms at this bound, about a day at D = 1e12.
D_LIMIT = 10_000


@dataclass(frozen=True)
class HalfInteger:
    """A number k/2 stored as its integer double ``twice``."""

    twice: int

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


@lru_cache(maxsize=None)
def _log_gamma_twice(twice: int) -> float:
    if twice % 2 == 0:
        # integer argument k: ln (k-1)!
        return math.fsum(math.log(j) for j in range(1, twice // 2))
    # half-integer argument k + 1/2: sqrt(pi) times (1/2)(3/2)...(k - 1/2)
    k = (twice - 1) // 2
    return LN_SQRT_PI + math.fsum(math.log(j - 0.5) for j in range(1, k + 1))


def log_gamma_half(x: HalfInteger) -> float:
    """ln Gamma(x) for positive x on the half-integer lattice."""
    if x.twice <= 0:
        raise GammaPoleError(f"Gamma pole or reflection region at x = {x}")
    return _log_gamma_twice(x.twice)


def alpha_coefficient(D: int, m: int) -> PotentialSpec:
    """Coupling and decay exponent of the potential sourced by a point charge.

    For D > 2m the coefficient is
    (-1)^(m+1) Gamma(D/2 - m) / (4^(m-1) pi^(D/2 - 1) Gamma(m)), carried as
    a signed-log value, with beta = D - 2m.  D == 2m degenerates to the
    logarithmic potential (the gamma factor hits its pole) and is returned
    as a classified spec rather than an error; D < 2m is short range and is
    rejected, and so is D > D_LIMIT.
    """
    if not 2 <= D <= D_LIMIT or m < 1:
        raise InvalidParameterError(
            "out-of-domain", f"need 2 <= D <= {D_LIMIT}, m >= 1; got D={D}, m={m}"
        )
    beta = D - 2 * m
    if beta < 0:
        raise InvalidParameterError(
            "short-range", f"beta = D - 2m = {beta} < 0: the potential is short-range"
        )
    if beta == 0:
        return PotentialSpec(alpha=None, beta=0)
    sign = 1 if m % 2 == 1 else -1
    lnmag = (
        log_gamma_half(HalfInteger(beta))
        - (m - 1) * LN_4
        - (D - 2) * 0.5 * LN_PI
        - log_gamma_half(HalfInteger(2 * m))
    )
    return PotentialSpec(alpha=SignedLogReal(sign, lnmag), beta=beta)


def alpha_m1_closed_form(D: int) -> SignedLogReal:
    """m = 1 coupling in its reduced closed form 2 Gamma(D/2) / (pi^(D/2-1) (D-2)).

    Kept as an independently coded expression so the general coefficient can
    be cross-checked against it; both must agree for every 3 <= D <= D_LIMIT.
    """
    if not 3 <= D <= D_LIMIT:
        raise InvalidParameterError("out-of-domain", f"need 3 <= D <= {D_LIMIT}, got D={D}")
    lnmag = (
        LN_2
        + log_gamma_half(HalfInteger(D))
        - (D - 2) * 0.5 * LN_PI
        - math.log(D - 2)
    )
    return SignedLogReal(1, lnmag)
