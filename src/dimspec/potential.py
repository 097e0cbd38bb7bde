"""Generalized Coulomb coefficients and half-integer-lattice gamma values.

Integer D and m keep every gamma argument on the positive half-integer
lattice, where the recurrence Gamma(x+1) = x Gamma(x) anchored at
Gamma(1) = 1 and Gamma(1/2) = sqrt(pi) is exact. Accumulating the factors
in log space removes both the overflow risk and any series-approximation
error; no Stirling or Lanczos fit is involved.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import InvalidParameterError, _shown, require_int
from .model import PotentialSpec, _short_range
from .signedlog import SignedLogReal

LN_PI = math.log(math.pi)
LN_SQRT_PI = 0.5 * LN_PI
LN_2 = math.log(2.0)
LN_4 = math.log(4.0)

# Largest dimension alpha_coefficient and alpha_m1_closed_form accept, and
# largest twice log_gamma_half does. Their gamma factors are summed term by
# term, so the cost grows linearly in D: about 1 ms at this bound, about a
# day at D = 1e12.
D_LIMIT = 10_000


@lru_cache(maxsize=None)
def _log_gamma_twice(twice: int) -> float:
    if twice % 2 == 0:
        # integer argument k: ln (k-1)!
        return math.fsum(math.log(j) for j in range(1, twice // 2))
    # half-integer argument k + 1/2: sqrt(pi) times (1/2)(3/2)...(k - 1/2)
    k = (twice - 1) // 2
    return LN_SQRT_PI + math.fsum(math.log(j - 0.5) for j in range(1, k + 1))


def log_gamma_half(twice: int) -> float:
    """ln Gamma(twice / 2) for 0 < twice <= D_LIMIT: the half-integer lattice."""
    if require_int("twice", twice, hi=D_LIMIT) <= 0:
        raise InvalidParameterError(
            "gamma-pole", f"Gamma pole or reflection region at x = {_shown(twice)}/2"
        )
    return _log_gamma_twice(twice)


def alpha_coefficient(D: int, m: int) -> PotentialSpec:
    """Coupling and decay exponent of the potential sourced by a point charge.

    For D > 2m the coefficient is
    (-1)^(m+1) Gamma(D/2 - m) / (4^(m-1) pi^(D/2 - 1) Gamma(m)), carried as
    a signed-log value, with beta = D - 2m.  D == 2m degenerates to the
    logarithmic potential (the gamma factor hits its pole) and is returned
    as a classified spec rather than an error; D < 2m is short range and is
    rejected, and so is D > D_LIMIT.
    """
    require_int("D", D, 2, D_LIMIT, "out-of-domain")
    require_int("m", m, 1, code="out-of-domain")
    beta = D - 2 * m
    if beta < 0:
        short = _short_range(beta, True)
        raise InvalidParameterError(short.reason_code, short.reason)
    if beta == 0:
        return PotentialSpec(alpha=None, beta=0)
    # beta > 0 and m >= 1 put both gamma arguments on the positive lattice
    lnmag = (
        _log_gamma_twice(beta)
        - (m - 1) * LN_4
        - (D - 2) * 0.5 * LN_PI
        - _log_gamma_twice(2 * m)
    )
    return PotentialSpec(alpha=SignedLogReal(1 if m % 2 == 1 else -1, lnmag), beta=beta)


def alpha_m1_closed_form(D: int) -> SignedLogReal:
    """m = 1 coupling in its reduced closed form 2 Gamma(D/2) / (pi^(D/2-1) (D-2)).

    Kept as an independently coded expression so the general coefficient can
    be cross-checked against it; both must agree for every 3 <= D <= D_LIMIT.
    """
    require_int("D", D, 3, D_LIMIT, "out-of-domain")
    lnmag = (
        LN_2
        + log_gamma_half(D)
        - (D - 2) * 0.5 * LN_PI
        - math.log(D - 2)
    )
    return SignedLogReal(1, lnmag)
