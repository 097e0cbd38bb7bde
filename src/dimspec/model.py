"""Domain types, parameter validation, and regime classification.

Every other module builds on the types here: the integer parameter triple
(D, n, m), the outcome sum type for energy evaluations, and
``classify_coupling``, the one place that decides which regime a point
falls in. The closed forms, the grid scan and both oracles ask it.
``scheme_m`` is the one place a coupling scheme fixes m.
"""

from __future__ import annotations

__all__ = [
    "Classification",
    "EnergyOutcome",
    "PotentialSpec",
    "ScanRecord",
    "Scheme",
    "SystemParams",
    "classify_coupling",
    "classify_outcome",
    "classify_regime",
]

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import InvalidParameterError, _shown, require_int
from .signedlog import SignedLogReal


class Scheme(Enum):
    """Rule tying the potential's Laplacian power m to the wave equation's n."""

    M_EQUALS_N = "mn"
    M_EQUALS_ONE = "m1"
    EXPLICIT = "explicit"


class Classification(Enum):
    BOUND = "bound"
    DIVERGENT = "divergent"
    SINGULAR = "singular"
    REPULSIVE = "repulsive"
    LOGARITHMIC = "logarithmic"
    INVALID = "invalid"


@dataclass(frozen=True, slots=True)
class SystemParams:
    """The integer triple (D, n, m).

    D >= 2 is the space dimension, n >= 1 the wave-equation Laplacian power,
    m >= 1 the power in the potential's field equation.
    """

    D: int
    n: int
    m: int

    def __post_init__(self) -> None:
        require_int("D", self.D, 2, code="bad-dimension")
        require_int("n", self.n, 1, code="bad-power")
        require_int("m", self.m, 1, code="bad-power")

    @property
    def scheme(self) -> Scheme:
        """The scheme (n, m) satisfies; n = m = 1 satisfies both and reads mn."""
        if self.m == self.n:
            return Scheme.M_EQUALS_N
        if self.m == 1:
            return Scheme.M_EQUALS_ONE
        return Scheme.EXPLICIT

    @property
    def beta(self) -> int:
        """Decay exponent of the derived potential (may be negative = short range)."""
        return self.D - 2 * self.m


@dataclass(frozen=True, slots=True)
class PotentialSpec:
    """Coupling strength and decay exponent of the power-law potential.

    ``alpha`` is None exactly in the logarithmic case (D == 2m), where the
    power-law coefficient degenerates.
    """

    alpha: Optional[SignedLogReal]
    beta: int


@dataclass(frozen=True, slots=True)
class EnergyOutcome:
    """Either a bound ground-state energy or a classified failure mode."""

    classification: Classification
    energy: Optional[SignedLogReal] = None
    reason_code: Optional[str] = None
    reason: Optional[str] = None

    def __post_init__(self) -> None:
        # BOUND is not INVALID, so a bound outcome reads one member
        bound = self.classification is Classification.BOUND
        if bound:
            if self.energy is None or self.energy.sign != -1:
                raise InvalidParameterError(
                    "inconsistent-outcome", "bound outcomes carry a strictly negative energy"
                )
        elif self.energy is not None:
            raise InvalidParameterError(
                "inconsistent-outcome", "only bound outcomes carry an energy"
            )
        invalid = not bound and self.classification is Classification.INVALID
        if invalid != (self.reason_code is not None):
            raise InvalidParameterError(
                "inconsistent-outcome", "invalid outcomes (and only those) carry a reason code"
            )

    @property
    def is_bound(self) -> bool:
        return self.classification is Classification.BOUND

    @classmethod
    def invalid(cls, code: str, reason: str) -> "EnergyOutcome":
        return cls(Classification.INVALID, reason_code=code, reason=reason)


@dataclass(frozen=True, slots=True)
class ScanRecord:
    """One evaluated grid point, with its optional reference value."""

    params: SystemParams
    beta: int
    alpha: Optional[SignedLogReal]
    outcome: EnergyOutcome
    paper_value: Optional[float] = None  # the published energy, as printed


# The outcome of each regime that carries neither an energy nor a reason:
# immutable values, stated once and shared by every record in that regime.
NON_BOUND_OUTCOMES = {
    tag: EnergyOutcome(tag)
    for tag in Classification
    if tag not in (Classification.BOUND, Classification.INVALID)
}


def scheme_m(n: int, scheme: Scheme) -> int:
    """The m that ``scheme`` ties to n, n under mn and 1 under m1: the one
    place a scheme fixes m. Any other scheme fixes none and is rejected."""
    if scheme is Scheme.M_EQUALS_N:
        return n
    if scheme is Scheme.M_EQUALS_ONE:
        return 1
    raise InvalidParameterError("bad-scheme", "only the mn and m1 schemes fix m")


def classify_coupling(beta: int, sign: int, n: int) -> Classification:
    """The regime of an r^-beta coupling of sign ``sign`` under (-1)^n Laplacian^n.

    The checks are ordered and exactly one tag applies: a short-range
    potential (beta < 0) is invalid, beta == 0 is the logarithmic
    degeneration, a non-positive coupling is repulsive whatever the
    exponent, and only then do the window boundaries (beta == 2n divergent,
    beta > 2n singular) come into play. All three must be ints.
    """
    # one expression, no call: this runs once per evaluated record
    if not type(beta) is type(sign) is type(n) is int:
        raise InvalidParameterError(
            "non-integer",
            f"beta, sign and n must be integers, got {_shown(beta)}, {_shown(sign)}, {_shown(n)}",
        )
    if beta < 0:
        return Classification.INVALID
    if beta == 0:
        return Classification.LOGARITHMIC
    if sign <= 0:
        return Classification.REPULSIVE
    if beta == 2 * n:
        return Classification.DIVERGENT
    if beta > 2 * n:
        return Classification.SINGULAR
    return Classification.BOUND


def classify_regime(D: int, n: int, m: int) -> Classification:
    """Regime of the point-charge potential at (D, n, m): beta = D - 2m and
    the coupling sign (-1)^(m+1), so an even m is repulsive."""
    require_int("D", D, 2, code="out-of-domain")
    require_int("n", n, 1, code="out-of-domain")
    require_int("m", m, 1, code="out-of-domain")
    return classify_coupling(D - 2 * m, 1 if m % 2 == 1 else -1, n)


def classify_outcome(D: int, n: int, m: int) -> Optional[EnergyOutcome]:
    """classify_regime wrapped as an EnergyOutcome, or None when bound-eligible.

    A None return signals the caller to run an actual energy evaluator; all
    other regimes are terminal and include a deterministic reason for the
    invalid (short-range) case.
    """
    tag = classify_regime(D, n, m)
    if tag is Classification.BOUND:
        return None
    if tag is Classification.INVALID:
        return _short_range(D - 2 * m, True)
    return NON_BOUND_OUTCOMES[tag]


def _short_range(beta: int, derived: bool) -> EnergyOutcome:
    """The invalid outcome of a short-range potential, beta < 0: the one
    statement of its code and reason. ``derived`` says beta is D - 2m, and
    the reason then says so too."""
    source = "D - 2m = " if derived else ""
    return EnergyOutcome.invalid(
        "short-range", f"beta = {source}{_shown(beta)} < 0: the potential is short-range"
    )
