"""Closed-form ground-state energy evaluators.

``e0_general`` is the canonical leading-order large-dimension result for an
attractive power-law potential: the exact minimum of the effective potential
(D/2)^(2n) r^(-2n) - alpha r^(-beta). The two scheme-specific variants
reproduce the published algebraic forms verbatim so they can be
cross-checked against it; for m = 1 with n > 1 the published form is not an
algebraic rewriting of the general result, and
``report.scheme_m1_discrepancies`` makes that visible instead of hiding it.

All exponentiation happens in log space, and each rational exponent is the
correctly rounded quotient of its two integers (int true division), so
points like (19, 5) - where an intermediate reaches 10^115 and the energy
sits below 1e-150 - evaluate without overflow.
"""

from __future__ import annotations

__all__ = [
    "EnergyQuery",
    "QuantumNumber",
    "e0_general",
    "e0_scheme_m1",
    "e0_scheme_m1_rederived",
    "e0_scheme_mn",
    "effective_quantum_number",
]

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import InvalidParameterError, _shown, require_int
from .model import (
    NON_BOUND_OUTCOMES,
    Classification,
    EnergyOutcome,
    classify_coupling,
    classify_outcome,
)
from .potential import LN_2, alpha_coefficient
from .signedlog import SignedLogReal, _saturating_exp


# Largest n a query accepts, so that the closed form and the V_eff search
# both stay in their float range. Up to it the two agree to 1e-8 in ln|E| at
# D = 2, 3, 64 and 10 000, beta = 1, n and 2n - 1, alpha = 1e-100, 1 and 1e100;
# at n = 1e5 the closed form keeps only six digits, and past n ~ 1e308 the
# float 2n ln 2 overflows.
N_LIMIT = 10_000


@dataclass(frozen=True, slots=True)
class EnergyQuery:
    """Inputs to the general evaluator: coupling, decay exponent, powers.

    The one gate of ``e0_general`` and ``minimize_v_eff`` alike, and so of
    every record ``feasibility.build_record`` makes: alpha is a
    SignedLogReal or None (no coupling), and beta >= 0, 1 <= n <= N_LIMIT
    and D >= 2 are ints. Anything else raises InvalidParameterError.
    """

    alpha: Optional[SignedLogReal]
    beta: int
    n: int
    D: int

    def __post_init__(self) -> None:
        if self.alpha is not None and not isinstance(self.alpha, SignedLogReal):
            raise InvalidParameterError(
                "malformed-query",
                f"alpha must be a SignedLogReal or None, got {_shown(self.alpha)}",
            )
        require_int("beta", self.beta, 0, code="malformed-query")
        require_int("n", self.n, 1, N_LIMIT)
        require_int("D", self.D, 2, code="malformed-query")


def e0_general(q: EnergyQuery) -> EnergyOutcome:
    """Ground-state energy for an attractive coupling with 0 < beta < 2n.

    Outside that window the outcome is the ``classify_coupling`` tag of
    (beta, sign of alpha, n); a missing alpha counts as zero.
    """
    if not isinstance(q, EnergyQuery):
        raise InvalidParameterError("malformed-query", f"need an EnergyQuery, got {_shown(q)}")
    alpha, beta, n, D = q.alpha, q.beta, q.n, q.D
    tag = classify_coupling(beta, alpha.sign if alpha is not None else 0, n)
    if tag is not Classification.BOUND:
        return NON_BOUND_OUTCOMES[tag]

    two_n = 2 * n
    # |E0| = alpha * (2n-beta)/(2n) * D^(-2n beta/(2n-beta))
    #              * (2n / (2^(2n) alpha beta))^(-beta/(2n-beta))
    x_dim = two_n * beta / (two_n - beta)
    x_cpl = beta / (two_n - beta)
    ln_t = math.log(two_n) - two_n * LN_2 - alpha.lnmag - math.log(beta)
    lnmag = (
        alpha.lnmag
        + math.log(two_n - beta)
        - math.log(two_n)
        - x_dim * math.log(D)
        - x_cpl * ln_t
    )
    if not math.isfinite(lnmag):
        raise InvalidParameterError(
            "out-of-range",
            f"ln|E0| leaves the float range at ln alpha = {alpha.lnmag!r}, beta = {beta}, n = {n}",
        )
    return EnergyOutcome(tag, SignedLogReal(-1, lnmag))


def _ln_bracket_base(D: int, n: int) -> float:
    # n (D/2)^(2n) / (D/2 - n), valid only for D > 2n
    return math.log(n) + 2 * n * (math.log(D) - LN_2) - math.log((D - 2 * n) / 2.0)


def _e0_printed(D: int, n: int, m: int) -> EnergyOutcome:
    # The printed m = n and m = 1 forms differ only in m: both keep the
    # m = n bracket base n (D/2)^(2n) / (D/2 - n), raised to
    # (D - 2n) / (D - 2n - 2m), with alpha(D, m) raised to -2n / (D - 2n - 2m).
    tag_outcome = classify_outcome(D, n, m)
    if tag_outcome is not None:
        return tag_outcome
    if D <= 2 * n:  # only reachable at m = 1
        return EnergyOutcome.invalid(
            "printed-form-undefined",
            f"printed-form undefined: bracket base n(D/2)^(2n)/(D/2-n) is not positive "
            f"for D={_shown(D)} <= 2n={_shown(2 * n)}",
        )
    spec = alpha_coefficient(D, m)
    e_bracket = (D - 2 * n) / (D - 2 * n - 2 * m)
    e_coupling = -2 * n / (D - 2 * n - 2 * m)
    lnmag = (
        e_bracket * _ln_bracket_base(D, n)
        + e_coupling * spec.alpha.lnmag
        + math.log(4 * n - D)
        - math.log(2 * n)
    )
    return EnergyOutcome(Classification.BOUND, SignedLogReal(-1, lnmag))


def e0_scheme_mn(D: int, n: int) -> EnergyOutcome:
    """Published ground-state form for the m = n coupling scheme.

    Evaluated exactly as printed, restricted to the window 2n < D < 4n where
    its bracket base is positive; everywhere else the regime classification
    is returned unchanged (even n is repulsive there, never an error).
    """
    return _e0_printed(D, n, n)


def e0_scheme_m1(D: int, n: int) -> EnergyOutcome:
    """Published ground-state form for the m = 1 scheme, evaluated as printed.

    The printed expression keeps the bracket base n (D/2)^(2n) / (D/2 - n)
    of the m = n form, which is non-positive for D <= 2n even though the
    m = 1 bound window 2 < D < 2(n+1) admits such D when n > 1. Those points
    return an invalid outcome tagged ``printed-form-undefined`` rather than
    a guessed value; see ``e0_scheme_m1_rederived`` for the well-defined
    route through the general evaluator.
    """
    return _e0_printed(D, n, 1)


def e0_scheme_m1_rederived(D: int, n: int) -> EnergyOutcome:
    """m = 1 scheme routed through the general evaluator, coupling alpha(D, 1).

    Well defined on the whole window 2 < D < 2(n+1), including the D <= 2n
    points where the printed form breaks down.
    """
    spec = alpha_coefficient(D, 1)
    return e0_general(EnergyQuery(spec.alpha, spec.beta, n, D))


class QuantumNumber(NamedTuple):
    k_star: float
    nearest: int


def effective_quantum_number(energy: SignedLogReal) -> QuantumNumber:
    """Principal quantum number of the ordinary 3-D hydrogen level with this energy.

    Inverts E = -1/(2 k^2) to k* = sqrt(1/(2|E|)); the nearest integer is
    rounded half away from zero.
    """
    if not isinstance(energy, SignedLogReal) or energy.sign != -1:
        raise InvalidParameterError(
            "nonnegative-energy",
            f"effective quantum number needs a negative SignedLogReal energy, got {_shown(energy)}",
        )
    ln_k = -0.5 * (LN_2 + energy.lnmag)
    k_star = _saturating_exp(ln_k)
    nearest = int(math.floor(k_star + 0.5)) if math.isfinite(k_star) else 0
    return QuantumNumber(k_star, nearest)
