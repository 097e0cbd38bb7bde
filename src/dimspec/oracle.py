"""Independent numerical checks of the closed-form energies.

Two routes that share no algebra with the spectrum module:

* ``minimize_v_eff`` brackets and golden-section-searches the effective
  potential (D/2)^(2n) r^(-2n) - alpha r^(-beta) in ln r. Near the minimum
  the objective is flat to ~1 part in 1e16 over a window of width ~1e-7 in
  ln r, which double precision cannot resolve to the accuracy demanded
  here, so the objective is evaluated in 60-digit arithmetic while the
  search logic itself stays an ordinary golden section.

* ``radial_ground_state`` solves the n = 1 reduced radial equation by
  Numerov sweeps in x = ln r, with the grid, each sweep's cutoff and the
  energy bracket scaled by the closed-form estimate. Node counting isolates
  the level and a bracketed root of the matching condition polishes it.
  Both the full-Laplacian and half-Laplacian kinetic conventions are
  supported, so the -1/4 and -1/2 hartree ground levels of the 3-D Coulomb
  problem can each be pinned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import mpmath
import numpy as np

from .errors import (
    InvalidParameterError,
    NoConvergenceError,
    NoMinimumError,
    SingularPotentialError,
)
from .potential import LN_2
from .signedlog import SignedLogReal
from .spectrum import EnergyQuery, e0_general


@dataclass(frozen=True)
class EffectivePotential:
    """V_eff(r) = A r^(-2n) - alpha r^(-beta) with A = (D/2)^(2n)."""

    A: SignedLogReal
    alpha: SignedLogReal
    beta: int
    n: int

    @classmethod
    def from_query(cls, q: EnergyQuery) -> "EffectivePotential":
        ln_amp = 2 * q.n * (math.log(q.D) - LN_2)
        return cls(A=SignedLogReal(1, ln_amp), alpha=q.alpha, beta=q.beta, n=q.n)

    def value_at_ln_r(self, ln_r: float) -> SignedLogReal:
        centrifugal = SignedLogReal(1, self.A.lnmag - 2 * self.n * ln_r)
        coupling = SignedLogReal(self.alpha.sign, self.alpha.lnmag - self.beta * ln_r)
        return centrifugal - coupling


@dataclass(frozen=True)
class VeffMinimum:
    r_star: float
    e_min: SignedLogReal
    ln_r_star: float


def minimize_v_eff(
    q: EnergyQuery, *, rel_tol: float = 1e-12, dps: int = 60
) -> VeffMinimum:
    """Locate the interior minimum of the effective potential by search.

    The bracket is centered on the stationarity estimate
    r*^(2n-beta) = 2n (D/2)^(2n) / (alpha beta) and expanded geometrically
    until the minimum is interior; the final minimizer is cross-checked
    against that estimate to 1e-10 relative in ln r. Raises NoMinimumError
    when no interior minimum exists (alpha <= 0 or beta >= 2n).
    """
    if q.alpha.sign != 1 or q.beta <= 0 or q.beta >= 2 * q.n:
        raise NoMinimumError(
            f"no interior minimum for alpha sign {q.alpha.sign}, beta={q.beta}, n={q.n}"
        )
    pot = EffectivePotential.from_query(q)
    two_n = 2 * q.n
    with mpmath.workdps(dps):
        ln_amp = mpmath.mpf(pot.A.lnmag)
        ln_alpha = mpmath.mpf(q.alpha.lnmag)
        beta = q.beta

        def v(x):
            return mpmath.exp(ln_amp - two_n * x) - mpmath.exp(ln_alpha - beta * x)

        x_seed = (mpmath.log(two_n) + ln_amp - ln_alpha - mpmath.log(beta)) / (
            two_n - beta
        )
        v_seed = v(x_seed)
        half = mpmath.mpf(1)
        for _ in range(200):
            a, b = x_seed - half, x_seed + half
            if v(a) > v_seed < v(b):
                break
            half *= 2
        else:
            raise NoMinimumError("failed to bracket an interior minimum")

        inv_phi = (mpmath.sqrt(5) - 1) / 2
        tol = mpmath.mpf(rel_tol) * max(1, abs(x_seed))
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        fc, fd = v(c), v(d)
        while b - a > tol:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = v(c)
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = v(d)
        x_min = (a + b) / 2
        v_min = v(x_min)
        if v_min >= 0:
            raise NoMinimumError("search ended on a non-negative minimum")
        ln_e = float(mpmath.log(-v_min))
        x_min_f = float(x_min)
        x_seed_f = float(x_seed)

    if abs(x_min_f - x_seed_f) > 1e-10 * max(1.0, abs(x_seed_f)):
        raise NoConvergenceError(
            f"search minimizer ln r = {x_min_f!r} disagrees with the stationarity "
            f"estimate {x_seed_f!r}"
        )
    r_star = math.exp(x_min_f) if x_min_f < 709.0 else math.inf
    return VeffMinimum(r_star=r_star, e_min=SignedLogReal(-1, ln_e), ln_r_star=x_min_f)


class KineticConvention(Enum):
    FULL_LAPLACIAN = "full"
    HALF_LAPLACIAN = "half"


@dataclass(frozen=True)
class RadialSolution:
    """``u`` normalized on ``grid``, which steps by ``h`` in ln r up to the
    cutoff ``r_max``; ``sweeps`` counts node-count and matching sweeps."""

    grid: np.ndarray
    u: np.ndarray
    energy: float
    nodes: int
    kinetic_convention: KineticConvention
    r_max: float
    h: float
    sweeps: int


_STEP = 0.005  # Numerov step in ln r: every level varies slowly in ln r
_INNER = 1e-5  # inner grid edge, as a fraction of the length alpha / |E_est|
_TAIL = 40.0  # decay lengths sqrt(c0 / |E|) kept beyond the outer turning point
_DEEP = 8.0  # lower bracket edge, in units of |E_est| / c0
_NARROW = 1.1  # node-count bisection stops once lo / hi is at most this
_REL_TOL = 1e-10
_MAX_POLISH = 60
_BIG = 1e250


def radial_ground_state(
    D: int,
    alpha: float,
    beta: int = 1,
    convention: KineticConvention = KineticConvention.FULL_LAPLACIAN,
    excitation: int = 0,
) -> RadialSolution:
    """Radial eigenstate of -c0 u'' + [c0 (D-1)(D-3)/(4 r^2) - alpha r^-beta] u = E u.

    c0 is 1 (full Laplacian) or 1/2 (half). Only the centrifugal-regular,
    long-range-safe case beta = 1 with D >= 3 is supported; beta >= 2 falls
    to the center and is rejected as singular. Every length and energy
    scale comes from the closed-form estimate E_est, so the solve costs the
    same at any alpha.
    """
    if not isinstance(D, int) or isinstance(D, bool) or D < 3:
        raise InvalidParameterError(
            "centrifugal-irregular", f"radial solver needs integer D >= 3, got {D!r}"
        )
    if not isinstance(beta, int) or isinstance(beta, bool):
        raise InvalidParameterError("non-integer", f"beta must be an integer, got {beta!r}")
    if beta >= 2:
        raise SingularPotentialError(
            f"beta = {beta} >= 2: fall-to-center, no radial ground state"
        )
    if beta < 1:
        raise InvalidParameterError(
            "no-binding", f"beta = {beta} <= 0 gives no power-law binding"
        )
    if alpha <= 0:
        raise InvalidParameterError("repulsive", "radial solver needs alpha > 0")
    if not 1e-100 <= alpha <= 1e100:  # also catches nan and inf
        raise InvalidParameterError(
            "out-of-range", f"radial solver needs 1e-100 <= alpha <= 1e100, got {alpha!r}"
        )
    if excitation < 0:
        raise InvalidParameterError("bad-excitation", "excitation must be >= 0")

    c0 = 1.0 if convention is KineticConvention.FULL_LAPLACIAN else 0.5
    estimate = e0_general(EnergyQuery(SignedLogReal.from_float(alpha), beta, 1, D))
    scale = math.exp(estimate.energy.lnmag)
    # the closed form is the large-D limit: the true ground level is deeper by
    # at most (D / (D-1))^2 / c0, and the k-th level lies below |E_est| / (k+1)^2
    lo = -_DEEP * scale / c0
    hi = -scale / (excitation + 1) ** 2
    r_min = _INNER * (alpha / scale) ** (1.0 / beta)
    problem = _RadialProblem(D, alpha, beta, c0, r_min, hi)
    energy, grid, u = problem.solve(excitation, lo, hi)

    signs = np.sign(u[np.abs(u) > 0.0])
    nodes = int(np.count_nonzero(np.diff(signs)))
    if nodes != excitation:
        raise NoConvergenceError(
            f"converged state has {nodes} nodes, expected {excitation}"
        )
    return RadialSolution(
        grid=grid,
        u=u,
        energy=energy,
        nodes=nodes,
        kinetic_convention=convention,
        r_max=problem.r_stop(energy),
        h=_STEP,
        sweeps=problem.sweeps,
    )


def _sweep(coeffs: list, w0: float, w1: float) -> list:
    """Numerov recurrence w[i+1] = c[i] w[i] - w[i-1] from (w0, w1), rescaled
    as a whole whenever it nears overflow."""
    w = [w0, w1]
    for ci in coeffs:
        w2 = ci * w1 - w0
        if w2 > _BIG or w2 < -_BIG:
            w = [v / _BIG for v in w]
            w1 /= _BIG
            w2 /= _BIG
        w.append(w2)
        w0 = w1
        w1 = w2
    return w


class _RadialProblem:
    """Numerov sweeps in x = ln r for one (D, alpha, beta, c0).

    With u = r^(1/2) y the radial equation becomes
    y'' = [(D-2)^2/4 + r^2 (-E - alpha r^-beta) / c0] y, whose regular
    solution starts as y ~ r^((D-2)/2) (1 - alpha r / (2 c0 s)) with
    s = (D-1)/2. The centrifugal term is a constant in x, so the sweeps
    start at the first mesh point for every D. A sweep at energy E stops at
    r_stop(E).
    """

    def __init__(self, D: int, alpha: float, beta: int, c0: float, r_min: float, e_top: float):
        self.alpha = alpha
        self.beta = beta
        self.c0 = c0
        self.sweeps = 0
        self.ln_r_min = math.log(r_min)
        n_pts = self._points(e_top)
        self.rr = r_min * np.exp(_STEP * np.arange(n_pts))
        k = _STEP * _STEP / 12.0
        self.base = 1.0 - k * ((D - 2) ** 2 / 4.0 - (alpha / c0) * self.rr ** (2.0 - beta))
        self.slope = (k / c0) * self.rr**2
        corr = alpha / (c0 * (D - 1))
        # y / r_min^((D-2)/2) at the first two mesh points
        self.y0 = 1.0 - corr * r_min
        self.y1 = math.exp((D - 2) / 2.0 * _STEP) * (1.0 - corr * float(self.rr[1]))

    def r_stop(self, energy: float) -> float:
        """Outer turning point plus _TAIL decay lengths."""
        return (self.alpha / -energy) ** (1.0 / self.beta) + _TAIL * math.sqrt(self.c0 / -energy)

    def _points(self, energy: float) -> int:
        return int(math.ceil((math.log(self.r_stop(energy)) - self.ln_r_min) / _STEP)) + 1

    def _coeffs(self, energy: float) -> tuple[np.ndarray, list]:
        n_pts = self._points(energy)
        t = self.base[:n_pts] + self.slope[:n_pts] * energy
        return t, (12.0 / t - 10.0).tolist()

    def nodes_at(self, energy: float, limit: int) -> int:
        """Sign changes of the outward solution up to r_stop(energy); stops
        counting once the count exceeds ``limit``."""
        t, c = self._coeffs(energy)
        self.sweeps += 1
        w0 = float(t[0]) * self.y0
        w1 = float(t[1]) * self.y1
        nodes = 0
        pos = True
        for ci in c[1:-1]:
            w2 = ci * w1 - w0
            if w2 > _BIG or w2 < -_BIG:
                w2 /= _BIG
                w1 /= _BIG
            w0 = w1
            w1 = w2
            if (w2 > 0.0) != pos and w2 != 0.0:
                nodes += 1
                if nodes > limit:
                    break
                pos = not pos
        return nodes

    def _match(self, energy: float, m: int) -> tuple[float, tuple]:
        """Outward sweep to point m + 1 and inward sweep from r_stop(energy)
        to point m.

        Returns the sine of the angle between the two solutions' (w[m], w[m+1])
        pairs: continuous in the energy and zero exactly where the solutions
        are proportional. The inward sweep starts at zero one point past the
        last mesh point, where the decaying tail is stable.
        """
        t, c = self._coeffs(energy)
        self.sweeps += 2
        out = _sweep(c[1 : m + 1], float(t[0]) * self.y0, float(t[1]) * self.y1)
        inn = _sweep(c[-1:m:-1], 0.0, 1.0)[:0:-1]
        a0, a1, b0, b1 = out[m], out[m + 1], inn[0], inn[1]
        sine = (a0 * b1 - a1 * b0) / (math.hypot(a0, a1) * math.hypot(b0, b1))
        return sine, (t, out, inn, m)

    def solve(self, k: int, lo: float, hi: float) -> tuple[float, np.ndarray, np.ndarray]:
        """The k-th level: node-count bisection isolates it, then a bracketed
        regula falsi (Illinois) on the matching condition polishes it."""
        n_lo = self.nodes_at(lo, k + 1)
        n_hi = self.nodes_at(hi, k + 1)
        if n_lo > k:
            raise NoConvergenceError(f"lower bracket {lo} already has too many nodes")
        if n_hi <= k:
            raise NoConvergenceError(f"upper bracket {hi} finds no level with excitation {k}")
        # geometric midpoints: the levels crowd towards 0
        while n_lo < k or n_hi > k + 1 or lo < _NARROW * hi:
            mid = hi * math.sqrt(lo / hi)
            if not lo < mid < hi:
                raise NoConvergenceError(f"no single level with excitation {k} in [{lo}, {hi}]")
            n_mid = self.nodes_at(mid, k + 1)
            if n_mid > k:
                hi, n_hi = mid, n_mid
            else:
                lo, n_lo = mid, n_mid

        # match at the bottom of the well in x, r = alpha / (2 |E|), which lies
        # inside the allowed region of any level in this narrow bracket
        m = int(np.argmax(self.base + self.slope * hi * math.sqrt(lo / hi)))
        f_lo, _ = self._match(lo, m)
        f_hi, _ = self._match(hi, m)
        if (f_lo > 0.0) == (f_hi > 0.0):
            raise NoConvergenceError(f"matching condition keeps its sign over [{lo}, {hi}]")
        side = 0
        for _ in range(_MAX_POLISH):
            energy = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            f, parts = self._match(energy, m)
            if f == 0.0 or min(energy - lo, hi - energy) <= _REL_TOL * -energy:
                return (energy, *self._assemble(*parts))
            if (f > 0.0) == (f_hi > 0.0):
                hi, f_hi = energy, f
                if side == 1:
                    f_lo *= 0.5
                side = 1
            else:
                lo, f_lo = energy, f
                if side == -1:
                    f_hi *= 0.5
                side = -1
        raise NoConvergenceError(f"matching condition unresolved after {_MAX_POLISH} steps")

    def _assemble(self, t: np.ndarray, out: list, inn: list, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Glue the outward and inward solutions at point m into u = r^(1/2) w / t."""
        if inn[0] == 0.0:
            raise NoConvergenceError("inward sweep vanished at the matching point")
        scale = out[m] / inn[0]
        w = np.array(out[:m] + inn)
        w[m:] *= scale
        rr = self.rr[: len(t)]
        u = np.sqrt(rr) * w / t
        u /= np.abs(u).max()  # w may reach _BIG, where u * u would overflow
        u /= math.sqrt(float(np.trapezoid(u * u, rr)))
        return rr, u
