"""Generalized Coulomb coefficients and half-integer-lattice gamma values.

Integer D and m keep every gamma argument on the positive half-integer
lattice, where the recurrence Gamma(x+1) = x Gamma(x) anchored at
Gamma(1) = 1 and Gamma(1/2) = sqrt(pi) is exact. Accumulating the factors
in log space removes both the overflow risk and any series-approximation
error; no Stirling or Lanczos fit is involved.
"""

from __future__ import annotations

__all__ = ["alpha_coefficient", "log_gamma_half"]

import math
import threading
from functools import lru_cache

from .errors import InvalidParameterError, _shown, require_int
from .model import PotentialSpec, _short_range
from .signedlog import SignedLogReal

LN_PI = math.log(math.pi)
LN_SQRT_PI = 0.5 * LN_PI
LN_2 = math.log(2.0)
LN_4 = math.log(4.0)

# Largest n an energy query accepts, so that the closed form and the V_eff
# search both stay in their float range. Up to it the two agree to 1e-8 in
# ln|E| at D = 2, 3, 64 and 10 000, beta = 1, n and 2n - 1, alpha = 1e-100, 1
# and 1e100; at n = 1e5 the closed form keeps only six digits, and past
# n ~ 1e308 the float 2n ln 2 overflows.
N_LIMIT = 10_000

# Largest dimension alpha_coefficient accepts, and largest twice
# log_gamma_half does: the last D of the widest window, the m = n one, at
# N_LIMIT, so every D a window lists has a coupling. Each log factor is
# taken once per process and each value sums up to D / 2 of them, so the cost
# still grows linearly in D: at this bound about 1.4 ms with every log new and
# 0.3 ms with them kept, and the m = 1 window at N_LIMIT, every D up to
# 2 N_LIMIT + 1, about 1.7 s.
D_LIMIT = 4 * N_LIMIT

# ln j and ln(j - 1/2) for j = 1, 2, ..., at index j - 1, each grown on
# demand under _GROW: every gamma value is an fsum of a prefix of one of them
_LN_INT: list[float] = []
_LN_HALF: list[float] = []
_GROW = threading.Lock()


def _log_prefix(logs: list[float], start: float, count: int) -> list[float]:
    """The first count of ln(start), ln(start + 1), ..., kept in logs."""
    if len(logs) < count:
        with _GROW:
            logs.extend(math.log(start + j) for j in range(len(logs), count))
    return logs[:count]


@lru_cache(maxsize=None)
def _log_gamma_twice(twice: int) -> float:
    if twice % 2 == 0:
        # integer argument k: ln (k-1)! = ln 1 + ... + ln(k-1)
        return math.fsum(_log_prefix(_LN_INT, 1, twice // 2 - 1))
    # half-integer argument k + 1/2: sqrt(pi) times (1/2)(3/2)...(k - 1/2)
    return LN_SQRT_PI + math.fsum(_log_prefix(_LN_HALF, 0.5, (twice - 1) // 2))


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
