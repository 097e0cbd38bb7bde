"""Domain types, parameter validation, and regime classification.

Every other module builds on the types here: the integer parameter triple
(D, n, m), the outcome sum type for energy evaluations, and the single
total classification function that decides which regime a parameter point
falls in.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import InvalidParameterError
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


class PotentialNature(Enum):
    ATTRACTIVE = "attractive"
    REPULSIVE = "repulsive"
    LOGARITHMIC = "logarithmic"


class Formula(Enum):
    """Which evaluation route produced a record (wire tags are fixed)."""

    GENERAL = "Eq2"
    SCHEME_MN = "Eq6"
    SCHEME_M1 = "Eq9"
    ORACLE_VEFF = "OracleVeff"
    ORACLE_RADIAL = "OracleRadial"


def _require_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError("non-integer", f"{name} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class SystemParams:
    """The integer triple (D, n, m) plus the coupling scheme that fixed m.

    D >= 2 is the space dimension, n >= 1 the wave-equation Laplacian power,
    m >= 1 the power in the potential's field equation.
    """

    D: int
    n: int
    m: int
    scheme: Scheme = Scheme.EXPLICIT

    def __post_init__(self) -> None:
        _require_int("D", self.D)
        _require_int("n", self.n)
        _require_int("m", self.m)
        if self.D < 2:
            raise InvalidParameterError("bad-dimension", f"D must be >= 2, got {self.D}")
        if self.n < 1:
            raise InvalidParameterError("bad-power", f"n must be >= 1, got {self.n}")
        if self.m < 1:
            raise InvalidParameterError("bad-power", f"m must be >= 1, got {self.m}")
        if self.scheme is Scheme.M_EQUALS_N and self.m != self.n:
            raise InvalidParameterError(
                "scheme-mismatch", f"scheme mn requires m == n, got m={self.m}, n={self.n}"
            )
        if self.scheme is Scheme.M_EQUALS_ONE and self.m != 1:
            raise InvalidParameterError(
                "scheme-mismatch", f"scheme m1 requires m == 1, got m={self.m}"
            )

    @classmethod
    def for_scheme(cls, D: int, n: int, scheme: Scheme, m: Optional[int] = None) -> "SystemParams":
        """Build params deriving m from the scheme (m is required for EXPLICIT).

        At n = 1 both schemes give m = 1; that point is built as mn, the
        scheme the record parsers infer from (n, m), so it round-trips.
        """
        if scheme is Scheme.M_EQUALS_N or (scheme is Scheme.M_EQUALS_ONE and n == 1):
            return cls(D, n, n, Scheme.M_EQUALS_N)
        if scheme is Scheme.M_EQUALS_ONE:
            return cls(D, n, 1, scheme)
        if m is None:
            raise InvalidParameterError("missing-m", "explicit scheme requires m")
        return cls(D, n, m, scheme)

    @property
    def beta(self) -> int:
        """Decay exponent of the derived potential (may be negative = short range)."""
        return self.D - 2 * self.m


@dataclass(frozen=True)
class PotentialSpec:
    """Coupling strength and decay exponent of the power-law potential.

    ``alpha`` is None exactly in the logarithmic case (D == 2m), where the
    power-law coefficient degenerates.
    """

    alpha: Optional[SignedLogReal]
    beta: int
    nature: PotentialNature

    def __post_init__(self) -> None:
        if self.beta < 0:
            raise InvalidParameterError("short-range", f"beta must be >= 0, got {self.beta}")
        if (self.beta == 0) != (self.nature is PotentialNature.LOGARITHMIC):
            raise InvalidParameterError(
                "inconsistent-spec", "beta == 0 exactly for the logarithmic nature"
            )
        if self.nature is PotentialNature.LOGARITHMIC:
            if self.alpha is not None:
                raise InvalidParameterError(
                    "inconsistent-spec", "logarithmic potential carries no alpha"
                )
        else:
            if self.alpha is None or self.alpha.sign == 0:
                raise InvalidParameterError("inconsistent-spec", "alpha must be nonzero")
            repulsive = self.alpha.sign == -1
            if repulsive != (self.nature is PotentialNature.REPULSIVE):
                raise InvalidParameterError(
                    "inconsistent-spec", "nature must match the sign of alpha"
                )


@dataclass(frozen=True)
class EnergyOutcome:
    """Either a bound ground-state energy or a classified failure mode."""

    classification: Classification
    energy: Optional[SignedLogReal] = None
    reason_code: Optional[str] = None
    reason: Optional[str] = None

    def __post_init__(self) -> None:
        if self.classification is Classification.BOUND:
            if self.energy is None or self.energy.sign != -1:
                raise InvalidParameterError(
                    "inconsistent-outcome", "bound outcomes carry a strictly negative energy"
                )
        elif self.energy is not None:
            raise InvalidParameterError(
                "inconsistent-outcome", "only bound outcomes carry an energy"
            )
        if (self.classification is Classification.INVALID) != (self.reason_code is not None):
            raise InvalidParameterError(
                "inconsistent-outcome", "invalid outcomes (and only those) carry a reason code"
            )

    @property
    def is_bound(self) -> bool:
        return self.classification is Classification.BOUND

    @classmethod
    def bound(cls, energy: SignedLogReal) -> "EnergyOutcome":
        return cls(Classification.BOUND, energy=energy)

    @classmethod
    def divergent(cls) -> "EnergyOutcome":
        return cls(Classification.DIVERGENT)

    @classmethod
    def singular(cls) -> "EnergyOutcome":
        return cls(Classification.SINGULAR)

    @classmethod
    def repulsive(cls) -> "EnergyOutcome":
        return cls(Classification.REPULSIVE)

    @classmethod
    def logarithmic(cls) -> "EnergyOutcome":
        return cls(Classification.LOGARITHMIC)

    @classmethod
    def invalid(cls, code: str, reason: str) -> "EnergyOutcome":
        return cls(Classification.INVALID, reason_code=code, reason=reason)


@dataclass(frozen=True)
class ScanRecord:
    """One evaluated grid point, with provenance and optional reference value."""

    params: SystemParams
    beta: int
    alpha: Optional[SignedLogReal]
    outcome: EnergyOutcome
    formula: Formula
    paper_value: Optional[SignedLogReal] = None


def classify_regime(D: int, n: int, m: int) -> Classification:
    """Total classification of a parameter point; exactly one tag applies.

    The checks are ordered: short-range potentials are invalid, beta == 0 is
    the logarithmic degeneration, an even m flips the potential repulsive
    regardless of anything else, and only then do the window boundaries
    (beta == 2n divergent, beta > 2n singular) come into play.
    """
    _require_int("D", D)
    _require_int("n", n)
    _require_int("m", m)
    if D < 2 or n < 1 or m < 1:
        raise InvalidParameterError(
            "out-of-domain", f"need D >= 2, n >= 1, m >= 1; got D={D}, n={n}, m={m}"
        )
    beta = D - 2 * m
    if beta < 0:
        return Classification.INVALID
    if beta == 0:
        return Classification.LOGARITHMIC
    if m % 2 == 0:
        return Classification.REPULSIVE
    if beta == 2 * n:
        return Classification.DIVERGENT
    if beta > 2 * n:
        return Classification.SINGULAR
    return Classification.BOUND


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
        beta = D - 2 * m
        return EnergyOutcome.invalid(
            "short-range",
            f"beta = D - 2m = {beta} < 0: the potential is short-range",
        )
    return EnergyOutcome(tag)
