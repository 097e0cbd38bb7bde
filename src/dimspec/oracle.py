"""Independent numerical checks of the closed-form energies.

Two routes that share no algebra with the spectrum module:

* ``minimize_v_eff`` locates the minimum of the effective potential
  (D/2)^(2n) r^(-2n) - alpha r^(-beta) as the zero of its slope in ln r,
  bracketed around the stationarity estimate and found by Brent's zero
  finder, in floats. The potential is flat to ~1 part in 1e16 over a window
  of width ~1e-7 in ln r around its minimum, but its slope crosses zero
  there at a rate of 2n beta |V_min|, so the root is resolved to
  ~1e-16 / (2n - beta). The reported energy, one value at the root, is
  factored as -alpha r^-beta (1 - e^d), whose logarithm is a sum that floats
  round once, with no cancellation.

* ``radial_ground_state`` solves the n = 1 reduced radial equation by
  Numerov sweeps in x = ln r, with the grid, each sweep's cutoff and the
  upper energy bracket scaled by the closed-form estimate. Near the origin the
  regular solution is its power series in r, so each sweep starts where the
  series' first-order term reaches 0.1, from the full series at the sweep's
  energy, and the grid points inside that come from the series too. The
  sweeps carry the ratio of successive values, which never overflows.
  Node counting from the Hardy floor, a proven lower bound, isolates the
  level, and Brent's zero finder on the matching condition polishes it. That
  runs on a coarse mesh at step 2h; a fine mesh at h then needs only Brent's
  zero finder, from a tight bracket about the coarse level, and the two
  levels give Richardson's (16 E_h - E_2h) / 15, free of Numerov's h^4 error
  term. The node count comes from the last matching sweeps; the wavefunction
  is built only when it is read. Both the full-Laplacian and half-Laplacian
  kinetic conventions are supported, so the -1/4 and -1/2 hartree ground
  levels of the 3-D Coulomb problem can each be pinned.
"""

from __future__ import annotations

__all__ = [
    "KineticConvention",
    "RadialSolution",
    "VeffMinimum",
    "minimize_v_eff",
    "radial_ground_state",
]

import math
import numbers
import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial

# Unused by the library. benchmarks/probes.py's -X importtime probe requires
# `import dimspec` to load mpmath; a benchmark-only change removes both together.
import mpmath  # noqa: F401
import numpy as np

from .errors import (
    InvalidParameterError,
    NoConvergenceError,
    _shown,
    require_int,
)
from .model import Classification, classify_coupling
from .potential import LN_2
from .signedlog import SignedLogReal
from .spectrum import EnergyQuery, e0_general


@dataclass(frozen=True)
class VeffMinimum:
    """The searched minimum; ``evaluations`` counts slope calls."""

    r_star: float
    e_min: SignedLogReal
    ln_r_star: float
    evaluations: int


_VEFF_TOL = 1e-14  # search tolerance in ln r, relative to max(1, |ln r*|)


def _exact_sum(*terms: tuple[int, float]) -> float:
    """The sum of k v over the (k, v) pairs, rounded once. Each k v is
    written as the floats v 2^j over the set bits j of |k|, each exact, as
    doubling is, and math.fsum rounds their sum once (Shewchuk, Discrete
    Comput. Geom. 18, 305 (1997)): ~log2 |k| parts per term, summed in C.
    Raises ValueError on a non-finite v, and OverflowError where the sum
    rounds past the float range, or where a part or a partial sum does
    though the total would not, which needs the sum of |k v| past 2^1023."""
    parts = []
    for k, v in terms:
        if not math.isfinite(v):
            raise ValueError(f"cannot sum the non-finite term {v!r}")
        if k < 0:
            k, v = -k, -v
        while k:
            if k & 1:
                parts.append(v)
            k >>= 1
            v += v
    try:
        total = math.fsum(parts)
    except ValueError:  # parts overflowed to both inf and -inf
        total = math.inf
    if math.isinf(total):  # a part overflowed
        raise OverflowError(f"the sum of {terms!r} leaves the float range")
    return total


def minimize_v_eff(q: EnergyQuery) -> VeffMinimum:
    """Locate the interior minimum of the effective potential by search.

    The minimum is the zero of the slope dV_eff / d ln r, bracketed around
    the stationarity estimate r*^(2n-beta) = 2n (D/2)^(2n) / (alpha beta):
    the slope must be negative at the bracket's inner edge and positive at
    its outer one. Brent's zero finder then locates the root, which floats
    resolve to ~1e-16 / (2n - beta) in ln r, and it is cross-checked against
    the estimate to 1e-10 relative in ln r. The depth at the root x is
    ln |E| = ln alpha - beta x + ln(1 - e^d) with A = (D/2)^(2n) and
    d = ln A - ln alpha - (2n - beta) x < 0, each sum exact and rounded once;
    d ~ ln(beta / 2n) there, so nothing cancels and floats suffice. A query
    that ``classify_coupling`` does not call bound has no interior minimum
    and raises InvalidParameterError coded with its classification
    ("divergent", "repulsive", "logarithmic", ...); a bound query whose
    coupling carries the search past what floats resolve raises
    NoConvergenceError.
    """
    if not isinstance(q, EnergyQuery):
        raise InvalidParameterError("malformed-query", f"need an EnergyQuery, got {_shown(q)}")
    sign = q.alpha.sign if q.alpha is not None else 0
    tag = classify_coupling(q.beta, sign, q.n)
    if tag is not Classification.BOUND:
        raise InvalidParameterError(
            tag.value,
            f"no interior minimum for alpha sign {sign}, beta={q.beta}, n={q.n}: {tag.value}",
        )
    two_n, beta = 2 * q.n, q.beta
    # ln A with A = (D/2)^(2n), and the stationarity estimate of ln r*, from
    # r*^(2n-beta) = 2n A / (alpha beta)
    ln_amp = two_n * (math.log(q.D) - LN_2)
    x_seed = (math.log(two_n) + ln_amp - q.alpha.lnmag - math.log(beta)) / (two_n - beta)
    # ln |V_eff(r*)|: the potential is divided by it, so that its slope near
    # the minimum is of order 1
    ln_scale = q.alpha.lnmag - beta * x_seed + math.log1p(-beta / two_n)
    # V_eff / |V(r*)| = p e^(-2n t) - q e^(-beta t) at ln r = x_seed + t; the
    # slope's rates 2n p and beta q come from exponents as the float inputs
    # give them, not from the identity p = beta / (2n - beta). An extreme alpha
    # carries ln r* or ln_scale past the float range, where _exact_sum meets
    # an inf, a nan or a term it cannot hold, and math.exp overflows.
    try:
        p_rate = two_n * math.exp(_exact_sum((1, ln_amp), (-1, ln_scale), (-two_n, x_seed)))
        q_rate = beta * math.exp(_exact_sum((1, q.alpha.lnmag), (-1, ln_scale), (-beta, x_seed)))
    except (OverflowError, ValueError):
        raise NoConvergenceError(
            f"coupling ln alpha = {q.alpha.lnmag!r} is outside the search's float range"
        ) from None
    evaluations = 0

    def slope(x: float) -> float:
        nonlocal evaluations
        evaluations += 1
        t = x - x_seed
        try:
            return q_rate * math.exp(-beta * t) - p_rate * math.exp(-two_n * t)
        except OverflowError:  # e^(-2n t), far inside the seed
            return -math.inf

    # 1 in ln r, narrowed above beta = 32 so that e^(-beta t) stays at or
    # above e^-32 across the bracket, far from underflowing to a slope of 0
    half = min(1.0, 32.0 / beta)
    a, b = x_seed - half, x_seed + half
    slope_a, slope_b = slope(a), slope(b)
    if not slope_a < 0.0 < slope_b:
        # the query is bound, so the exact slope changes sign within a few ulp
        # of x_seed: only floats miss it, when x_seed +- half rounds back to
        # x_seed, or when the seed terms' exponents, sums of terms near
        # |ln alpha|, round away the bits that set their ratio
        if a == x_seed or b == x_seed:
            cause = f"the bracket ln r* +- {half} collapses onto the seed {x_seed!r}"
        else:
            cause = f"the seed terms at ln r* = {x_seed!r} lost the bits that place the root"
        raise NoConvergenceError(
            f"coupling ln alpha = {q.alpha.lnmag!r} is outside the search's float range: {cause}"
        )
    x = _brent_zero(slope, a, b, slope_a, slope_b, _VEFF_TOL, 1.0)

    # d = ln(kinetic / coupling term) ~ ln(beta / 2n): 1 - e^d is in [1/2n, 1]
    d = _exact_sum((1, ln_amp), (-1, q.alpha.lnmag), (beta - two_n, x))
    if d >= 0.0:
        raise NoConvergenceError("search ended on a non-negative minimum")
    ln_e = _exact_sum((1, q.alpha.lnmag), (-beta, x), (1, math.log(-math.expm1(d))))

    if abs(x - x_seed) > 1e-10 * max(1.0, abs(x_seed)):
        raise NoConvergenceError(
            f"search minimizer ln r = {x!r} disagrees with the stationarity "
            f"estimate {x_seed!r}"
        )
    return VeffMinimum(
        r_star=SignedLogReal(1, x).to_float(),
        e_min=SignedLogReal(-1, ln_e),
        ln_r_star=x,
        evaluations=evaluations,
    )


class KineticConvention(Enum):
    FULL_LAPLACIAN = "full"
    HALF_LAPLACIAN = "half"


@dataclass(frozen=True)
class RadialSolution:
    """The level ``energy`` with ``nodes`` sign changes, (16 E_h - E_2h) / 15
    from the levels of a fine solve at step ``h`` in ln r and a coarse one at
    2h, and ``shift`` = |energy - E_h|, the extrapolation's correction: an
    estimate of E_h's error, and more than that of ``energy``. ``sweeps``
    counts node-count and matching sweeps, ``matches`` the matching
    evaluations, two sweeps each, and ``steps`` the Numerov steps over every
    sweep, each summed over both solves. The wavefunction ``u`` of the fine
    solve at E_h, normalized on ``grid``, the fine mesh up to its cutoff
    ``r_max``, is built on first read of either, by one more sweep that
    ``steps`` does not count."""

    energy: float
    shift: float
    nodes: int
    kinetic_convention: KineticConvention
    r_max: float
    h: float
    sweeps: int
    matches: int
    steps: int
    _build: Callable[[], tuple[np.ndarray, np.ndarray]] = field(repr=False, compare=False)

    @cached_property
    def _built(self) -> tuple[np.ndarray, np.ndarray]:
        return self._build()

    @property
    def grid(self) -> np.ndarray:
        return self._built[0]

    @property
    def u(self) -> np.ndarray:
        return self._built[1]


# Each level is solved on two meshes in ln r, a fine one at step
# h = min(_STEP_MAX, _STEP_SCALE / (D - 2)) and a coarse one at 2h, and
# extrapolated. Every level varies slowly in ln r, so h = 0.01 serves small D.
# The centrifugal term's Numerov factor 1 - (2h)^2 (D-2)^2 / 48 on the coarse
# mesh vanishes at 2h (D-2) = 6.93, and solves fail well before that: with
# _STEP_SCALE = 3 (factor 0.25) they fail from D = 248 on. At 2
# (factor 0.67) every D up to the limit solves at k = 0, 8 and 16, and at 1.5
# (factor 0.81) at k = 0, 1, 8 and 16 too; 1.5 keeps the step at half of one
# that fails.
_STEP_MAX = 0.01
_STEP_SCALE = 1.5
# The fine solve starts Brent's zero finder from the bracket E_2h (1 -+ delta)
# about the coarse level, with delta = _WARM, widened _WARM_GROWTH-fold up to
# _WARM_TRIES times, and raises if no bracket holds a sign change. Over every
# D and k up to the limits in both conventions at alpha = 1, and every 13th D
# at alpha = 1e-100, 1e-6, 1.7, 1e50 and 1e100 (56 542 solves), the relative
# gap 15 shift / |E| runs from 1.7e-10 (D = 1200, k = 0) to 5.3e-4 (D = 152,
# k = 16), 1e-6 * 16^3 covers it 7.7-fold, and 0, 1, 2 and 3 widenings serve
# 27 760, 19 094, 8 902 and 786 solves. Of the deltas tried, 1e-8 to 1e-5,
# 1e-6 takes the fewest matches over 130 cases to D = 1200 and k = 16.
_WARM = 1e-6
_WARM_GROWTH = 16.0
_WARM_TRIES = 3
_INNER = 1e-5  # inner grid edge, as a fraction of the length alpha / |E_est|
_TAIL = 40.0  # decay lengths sqrt(c0 / |E|) kept beyond the outer turning point
# The node-count bisection stops once lo / hi is at most this. A wider bracket
# costs Brent's zero finder more matching sweeps than it saves bisection
# sweeps: the benchmark's seven solves (five at D = 3, one each at D = 5 and
# 25) take 136, 132, 138 and 143 sweeps at 1.1, 1.6, 2.0 and 4.0.
_NARROW = 1.6
_REL_TOL = 1e-10
_MAX_POLISH = 60
# Sweeps start at the last mesh point where the series' first-order term
# alpha r / (c0 (D-1)) is at most this.
_SERIES_EDGE = 0.1
# Terms of the series summed. Up to the sweep start z / (D-1) <= 0.1, and the
# Hardy floor keeps |eps| <= 1 / (D-2)^2, so |a_j z^j| falls below 2^-60 of
# the sum by j = 13 for every D up to the limit.
_SERIES_TERMS = 14
# Largest D solved. The step shrinks as 1 / (D-2) above D = 152, so the
# Numerov factor no longer limits D, but the cost of a solve grows with it: at
# the limit a solve takes 11x the Numerov steps of one at D = 152. Every D up
# to the limit solves in both conventions at alpha = 1e-100, 1 and 1e100.
RADIAL_D_LIMIT = 1200
# Largest excitation k solved. The step error grows steeply with k: after the
# extrapolation the relative error is 4e-9 at the limit, 3e-6 at k = 50 and
# 3e-4 at k = 100 at D = 3, where k = 300 no longer solves (half Laplacian);
# at D = 1200 it is 2e-10 at the limit.
RADIAL_EXCITATION_LIMIT = 16


def radial_ground_state(
    D: int,
    alpha: float,
    beta: int = 1,
    convention: KineticConvention = KineticConvention.FULL_LAPLACIAN,
    excitation: int = 0,
) -> RadialSolution:
    """Radial eigenstate of -c0 u'' + [c0 (D-1)(D-3)/(4 r^2) - alpha r^-beta] u = E u.

    c0 is 1 (full Laplacian) or 1/2 (half). Only the centrifugal-regular,
    long-range-safe case beta = 1 with 3 <= D <= RADIAL_D_LIMIT and
    excitation <= RADIAL_EXCITATION_LIMIT is supported; every other coupling
    is rejected, coded with its classification. Every length
    and energy scale comes from the closed-form estimate E_est, so the solve
    costs the same at any alpha. The level is solved on the coarse mesh, then
    on the fine mesh from a bracket about it, and each solve must end on a
    level with ``excitation`` nodes and no vanished sweep.
    """
    needs = "radial solver needs {bound}, got {value}"
    require_int("D", D, 3, RADIAL_D_LIMIT, message=needs)
    require_int("beta", beta)
    require_int("excitation", excitation, 0, RADIAL_EXCITATION_LIMIT, message=needs)
    if not isinstance(convention, KineticConvention):
        raise InvalidParameterError(
            "bad-convention", f"convention must be a KineticConvention, got {_shown(convention)}"
        )
    if not isinstance(alpha, numbers.Real) or isinstance(alpha, bool):
        raise InvalidParameterError("non-real", f"alpha must be a real number, got {_shown(alpha)}")
    if not 1e-100 <= abs(alpha) <= 1e100:  # also catches 0, nan and inf
        raise InvalidParameterError(
            "out-of-range", f"radial solver needs 1e-100 <= |alpha| <= 1e100, got {_shown(alpha)}"
        )
    alpha = float(alpha)
    tag = classify_coupling(beta, 1 if alpha > 0 else -1, 1)
    if tag is not Classification.BOUND:
        raise InvalidParameterError(
            tag.value, f"radial solver needs alpha > 0 and beta = 1: {tag.value} coupling"
        )

    c0 = 1.0 if convention is KineticConvention.FULL_LAPLACIAN else 0.5
    estimate = e0_general(EnergyQuery(SignedLogReal.from_float(alpha), beta, 1, D))
    scale = math.exp(estimate.energy.lnmag)
    # every level lies above the Hardy floor, and the k-th below |E_est| / (k+1)^2
    lo = _hardy_floor(D, alpha, c0)
    hi = -scale / (excitation + 1) ** 2
    r_min = _INNER * (alpha / scale)
    h = min(_STEP_MAX, _STEP_SCALE / (D - 2))
    coarse = _RadialProblem(D, alpha, c0, r_min, hi, 2.0 * h)
    e_2h = coarse.solve(excitation, lo, hi)
    _check(coarse, e_2h, excitation)
    fine = _RadialProblem(D, alpha, c0, r_min, hi, h)
    e_h, m = fine.polish(e_2h, lo, hi)
    _check(fine, e_h, excitation)
    # Numerov's level error is c h^4 + O(h^6): this removes the h^4 term
    energy = (16.0 * e_h - e_2h) / 15.0
    return RadialSolution(
        energy=energy,
        shift=abs(energy - e_h),
        nodes=excitation,
        kinetic_convention=convention,
        r_max=fine.r_stop(e_h),
        h=h,
        sweeps=coarse.sweeps + fine.sweeps,
        matches=coarse.matches + fine.matches,
        steps=coarse.steps + fine.steps,
        _build=partial(fine._assemble, e_h, m),
    )


def _check(problem: _RadialProblem, energy: float, k: int) -> None:
    """Raises unless the match at ``energy``, which Brent evaluated, glued a
    solution with k nodes and no sweep vanished at the matching point."""
    nodes, vanished = problem.signs[energy]
    if vanished:
        raise NoConvergenceError("a sweep vanished at the matching point")
    if nodes != k:
        raise NoConvergenceError(f"converged state has {nodes} nodes, expected {k}")


def _hardy_floor(D: int, alpha: float, c0: float) -> float:
    """-alpha^2 / (c0 (D-2)^2), a proven lower bound on every level of
    -c0 Laplacian - alpha / r in D >= 3 dimensions: Hardy's inequality
    c0 (-Laplacian) >= c0 ((D-2)/2)^2 r^-2 leaves at least
    min_r [c0 ((D-2)/2)^2 r^-2 - alpha / r], which is this value."""
    return -(alpha / (D - 2)) * (alpha / (D - 2)) / c0


def _series_terms(eps: float, D: int) -> list:
    """The coefficients a_j, j < _SERIES_TERMS, of y / r^((D-2)/2) of the
    regular solution in powers of z = alpha r / c0, for eps = E c0 / alpha^2:
    a_0 = 1 and a_j = -(a_(j-1) + eps a_(j-2)) / (j (D-2+j))."""
    a = [1.0, -1.0 / (D - 1)]
    for j in range(2, _SERIES_TERMS):
        a.append(-(a[-1] + eps * a[-2]) / (j * (D - 2 + j)))
    return a


def _series(z, a: list):
    """The sum of a_j z^j at z, a float or an array, by Horner's rule."""
    total = a[-1]
    for aj in a[-2::-1]:
        total = total * z + aj
    return total


def _ratio_sweep(coeffs: list, ratio: float, limit: float = math.inf) -> tuple[float, int, int]:
    """The Numerov recurrence w[i+1] = c[i] w[i] - w[i-1] carried as the
    ratio R = w[i+1] / w[i], through R = c[i] - 1/R from ``ratio``: returns the
    last R, the number of negative R (sign changes of w), and the steps
    taken. Stops once that number exceeds ``limit``."""
    negatives = 0
    rest = iter(coeffs)
    for ci in rest:
        try:
            ratio = ci - 1.0 / ratio
        except ZeroDivisionError:  # w[i] = 0 exactly, so w[i+1] = -w[i-1]
            ratio = -math.inf
        if ratio < 0.0:
            negatives += 1
            if negatives > limit:
                break
    return ratio, negatives, len(coeffs) - operator.length_hint(rest)


def _ratio_list(coeffs: list, ratio: float) -> list:
    """Every R of ``_ratio_sweep(coeffs, ratio)``, in order."""
    ratios = []
    for ci in coeffs:
        try:
            ratio = ci - 1.0 / ratio
        except ZeroDivisionError:
            ratio = -math.inf
        ratios.append(ratio)
    return ratios


def _log_path(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln|w[j] / w[0]| and the number of sign changes up to w[j], for j = 0
    .. len(r), from the ratios r[j] = w[j+1] / w[j] (overwritten). An
    infinite r[j] means w[j] is zero to the float range: ln|w[j]| reads -inf
    there, and |w[j+1] / w[j-1]| = |c r[j-1] - 1| is 1 to the same precision.
    Signs are counted by sign bit, so a -0.0 that stands for the reciprocal
    of a negative infinite ratio counts as negative."""
    flips = np.concatenate(([0], np.cumsum(np.signbit(r))))
    gap = np.flatnonzero(np.isinf(r))
    r[gap] = r[gap - 1] = 1.0
    ln = np.concatenate(([0.0], np.cumsum(np.log(np.abs(r)))))
    ln[gap] = -np.inf
    return ln, flips


class _RadialProblem:
    """Numerov sweeps in x = ln r for one (D, alpha, c0) at beta = 1.

    With u = r^(1/2) y the radial equation becomes
    y'' = [(D-2)^2/4 + r^2 (-E - alpha / r) / c0] y, whose regular solution
    is y = r^((D-2)/2) sum_j a_j z^j (``_series``). Where its first-order term
    alpha r / (c0 (D-1)) is small the series is the solution, so every sweep
    starts at ``start``, the last mesh point where that term is at most
    _SERIES_EDGE (never before the first), from the series at the sweep's
    energy; y is scaled to r^((D-2)/2) = 1 there. A sweep at energy E stops
    at r_stop(E).

    Each sweep carries the ratio R = w[i+1] / w[i] of the Numerov values
    w = t y through R = c[i] - 1/R, the renormalized Numerov method (B. R.
    Johnson, J. Chem. Phys. 67, 4086 (1977)): R does not grow with the
    solution, so nothing overflows at any D, and a node is a negative R.
    """

    def __init__(self, D: int, alpha: float, c0: float, r_min: float, e_top: float, h: float):
        self.D = D
        self.h = h
        self.alpha = alpha
        self.c0 = c0
        self.sweeps = 0
        self.matches = 0
        self.steps = 0
        # per matched energy: sign changes of the glued solution, and whether
        # a sweep vanished at the matching point
        self.signs: dict[float, tuple[int, bool]] = {}
        self.ln_r_min = math.log(r_min)
        n_pts = self._points(e_top)
        self.rr = r_min * np.exp(h * np.arange(n_pts))
        k = h * h / 12.0
        self.base = 1.0 - k * ((D - 2) ** 2 / 4.0 - (alpha / c0) * self.rr)
        self.slope = (k / c0) * self.rr**2
        self.z = (alpha / c0) * self.rr
        self.start = max(0, int(np.searchsorted(self.z / (D - 1), _SERIES_EDGE, "right")) - 1)

    def r_stop(self, energy: float) -> float:
        """Outer turning point plus _TAIL decay lengths."""
        return self.alpha / -energy + _TAIL * math.sqrt(self.c0 / -energy)

    def _points(self, energy: float) -> int:
        return int(math.ceil((math.log(self.r_stop(energy)) - self.ln_r_min) / self.h)) + 1

    def _eps(self, energy: float) -> float:
        """E c0 / alpha^2, the energy in the series' scale-free form: finite
        at any alpha."""
        return (energy / self.alpha) * (self.c0 / self.alpha)

    def _sweep_start(self, energy: float) -> tuple[np.ndarray, list, float, float]:
        """t = 1 - h^2 g / 12 and the recurrence factors 12 / t - 10 on mesh
        points start .. r_stop(energy), and w = t y at the first two of them,
        from the series, with r^((D-2)/2) = 1 at the first."""
        s, n_pts = self.start, self._points(energy)
        t = self.base[s:n_pts] + self.slope[s:n_pts] * energy
        a = _series_terms(self._eps(energy), self.D)
        y0 = _series(float(self.z[s]), a)
        y1 = math.exp((self.D - 2) / 2.0 * self.h) * _series(float(self.z[s + 1]), a)
        return t, (12.0 / t - 10.0).tolist(), float(t[0]) * y0, float(t[1]) * y1

    def nodes_at(self, energy: float, limit: int) -> int:
        """Sign changes of the outward solution up to r_stop(energy); stops
        counting once the count exceeds ``limit``."""
        _, c, w0, w1 = self._sweep_start(energy)
        self.sweeps += 1
        _, nodes, steps = _ratio_sweep(c[1:-1], w1 / w0, limit)
        self.steps += steps
        return nodes

    def _match(self, energy: float, m: int) -> float:
        """The sine of the angle between the (w[m], w[m+1]) pairs of the
        outward sweep to point m + 1 and the inward sweep from r_stop(energy)
        to point m: continuous in the energy and zero exactly where the two
        solutions are proportional. The inward sweep starts at zero one point
        past the last mesh point, where the decaying tail is stable. Records
        the sign data of the solution glued at point m in ``signs``.

        With R = w[m+1] / w[m] outward and S = w[m] / w[m+1] inward the sine
        is (1 - R S) / (hypot(1, R) hypot(1, S)) = cos(atan R + atan S), the
        latter finite where R or S is infinite, times the signs of the outward
        w[m] and the inward w[m+1]: -1 to the number of negative ratios before
        each.
        """
        _, c, w0, w1 = self._sweep_start(energy)
        self.sweeps += 2
        self.matches += 1
        self.steps += len(c) - 1
        i = m - self.start  # the matching point in the swept arrays
        out, n_out, _ = _ratio_sweep(c[1 : i + 1], w1 / w0)
        inn, n_in, _ = _ratio_sweep(c[-1:i:-1], math.inf)
        n_out -= out < 0.0  # sign changes up to w[m]
        # out = w[m+1] / w[m] is -inf where w[m] is 0 to the float range
        self.signs[energy] = (n_out + n_in, out == -math.inf or inn == 0.0)
        sine = math.cos(math.atan(out) + math.atan(inn))
        return -sine if (n_out + n_in - (inn < 0.0)) % 2 else sine

    def solve(self, k: int, lo: float, hi: float) -> float:
        """The k-th level: node-count bisection isolates it, then Brent's zero
        finder on the matching condition polishes it."""
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

        m = self._match_point(hi * math.sqrt(lo / hi))
        match = partial(self._match, m=m)
        return _brent_zero(match, lo, hi, match(lo), match(hi), _REL_TOL, 0.0)

    def polish(self, guess: float, lo: float, hi: float) -> tuple[float, int]:
        """The level next to a close ``guess``, and the matching point, without
        node counting: Brent's zero finder from the bracket guess (1 -+ delta),
        widened until the matching condition changes sign across it, within
        [lo, hi] and _WARM_TRIES widenings."""
        m = self._match_point(guess)
        match = partial(self._match, m=m)
        delta = _WARM
        for _ in range(_WARM_TRIES + 1):
            a, b = max(lo, guess * (1.0 + delta)), min(hi, guess * (1.0 - delta))
            fa, fb = match(a), match(b)
            if (fa > 0.0) != (fb > 0.0):
                return _brent_zero(match, a, b, fa, fb, _REL_TOL, 0.0), m
            delta *= _WARM_GROWTH
        raise NoConvergenceError(f"no fine level in [{a}, {b}] about the coarse level {guess}")

    def _match_point(self, energy: float) -> int:
        """The bottom of the well in x at ``energy``, r = alpha / (2 |E|),
        which lies inside the allowed region of any level near it."""
        return int(np.argmax(self.base + self.slope * energy))

    def _assemble(self, energy: float, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The outward and inward solutions at ``energy``, glued at point m
        into u = r^(1/2) w / t, built from their ratios in log space: ln|w|
        is a running sum of ln|R| and its sign flips at each negative R. Below
        the sweep start u is r^(1/2) y from the series, on the scale the
        outward sweep starts from."""
        s = self.start
        t, c, w0, w1 = self._sweep_start(energy)
        i = m - s  # the matching point in the swept arrays
        out = [w1 / w0] + _ratio_list(c[1:i], w1 / w0)  # w[j+1] / w[j] up to w[m]
        inn = _ratio_list(c[-1:i:-1], math.inf)[::-1]  # w[j] / w[j+1] from w[m]
        with np.errstate(divide="ignore"):
            ratios = np.concatenate((out, 1.0 / np.array(inn)))
        ln_w, flips = _log_path(ratios)
        ln_w += math.log(w0)
        z = self.z[:s]
        ln_y = (self.D - 2) / 2.0 * self.h * np.arange(-s, 0) + np.log(
            _series(z, _series_terms(self._eps(energy), self.D))
        )
        rr = self.rr[: s + len(t)]
        ln_u = 0.5 * np.log(rr) + np.concatenate((ln_y, ln_w - np.log(np.abs(t))))
        u = np.exp(ln_u - ln_u.max())
        u[s:] *= np.where(flips % 2, -1.0, 1.0) * np.sign(t)
        u /= math.sqrt(float(np.trapezoid(u * u, rr)))
        return rr, u


def _brent_zero(
    f, a: float, b: float, fa: float, fb: float, rel_tol: float, floor: float
) -> float:
    """A zero of f in [a, b], where f changes sign from fa = f(a) to
    fb = f(b), to rel_tol relative to max(|x|, floor) by Brent's zero finder
    (Brent 1973, ch. 4: inverse quadratic interpolation or secant steps,
    bisection whenever they would not shrink the bracket fast enough). A
    floor of 0 makes the tolerance purely relative; a positive floor lets a
    root at or near 0 converge too."""
    if (fa > 0.0) == (fb > 0.0):
        raise NoConvergenceError(f"f has no sign change over [{a}, {b}]")
    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAX_POLISH):
        if (fb > 0.0) == (fc > 0.0):  # keep the root between b and c
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):  # b is the best estimate so far
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * rel_tol * max(abs(b), floor)
        half = 0.5 * (c - b)
        if abs(half) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = half
        else:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic interpolation through a, b and c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < 3.0 * half * q - abs(tol * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                d = e = half
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, half)
        fb = f(b)
    raise NoConvergenceError(f"zero unresolved after {_MAX_POLISH} steps")
