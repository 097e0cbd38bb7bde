"""Reference values the harness checks library outputs against.

These are written independently of ``dimspec``: gamma values come from
``math.lgamma`` instead of the library's half-integer recurrence, and the
ground-state energy is taken as the value of the effective potential at its
stationary point instead of from the library's rearranged closed form.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# Oracle accuracy gates (README.md, "Gates").
VEFF_LNMAG_GATE = 1e-8  # relative deviation of ln|E| from the closed form
VEFF_R_STAR_GATE = 1e-9  # relative deviation of r* from stationarity
RADIAL_GATE = 1e-4  # relative deviation of a radial level from the exact formula
CLOSED_FORM_GATE = 1e-9  # relative deviation of ln|alpha|, ln|E0| from the references here

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def rel_dev(value: float, ref: float) -> float:
    """Deviation scaled by max(1, |ref|), the measure the library's own report uses."""
    return abs(value - ref) / max(1.0, abs(ref))


def regime(D: int, n: int, m: int) -> str:
    """Classification tag of a grid point, by the paper's window rules."""
    beta = D - 2 * m
    if beta < 0:
        return "invalid"
    if beta == 0:
        return "logarithmic"
    if m % 2 == 0:
        return "repulsive"
    if beta == 2 * n:
        return "divergent"
    if beta > 2 * n:
        return "singular"
    return "bound"


def ln_alpha(D: int, m: int) -> tuple[int, float]:
    """Sign and ln|alpha| of the coupling (-1)^(m+1) G(D/2-m) / (4^(m-1) pi^(D/2-1) G(m))."""
    lnmag = (
        math.lgamma(D / 2 - m)
        - (m - 1) * math.log(4.0)
        - (D / 2 - 1) * math.log(math.pi)
        - math.lgamma(m)
    )
    return (1 if m % 2 else -1), lnmag


def ln_r_star(ln_alpha_mag: float, beta: int, n: int, D: int) -> float:
    """ln of the stationary point of (D/2)^(2n) r^-2n - alpha r^-beta."""
    return (
        math.log(2 * n) + 2 * n * math.log(D / 2) - ln_alpha_mag - math.log(beta)
    ) / (2 * n - beta)


def ln_ground_energy(ln_alpha_mag: float, beta: int, n: int, D: int) -> float:
    """ln|V_eff(r*)|; at r* the centrifugal term is beta/(2n) of the coupling term."""
    x = ln_r_star(ln_alpha_mag, beta, n, D)
    return ln_alpha_mag - beta * x + math.log1p(-beta / (2 * n))


def exact_radial_level(D: int, alpha: float, convention: str, k: int) -> float:
    """E_k = -alpha^2 / (4 c0 (k + (D-1)/2)^2), the exact n = 1, beta = 1 level."""
    c0 = 1.0 if convention == "full" else 0.5
    return -(alpha * alpha) / (4.0 * c0 * (k + (D - 1) / 2) ** 2)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
