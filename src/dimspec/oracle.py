"""Independent numerical checks of the closed-form energies.

Two routes that share no algebra with the spectrum module:

* ``minimize_v_eff`` brackets the effective potential
  (D/2)^(2n) r^(-2n) - alpha r^(-beta) in ln r and searches it with Brent's
  parabolic-interpolation minimizer. Near the minimum the objective is flat
  to ~1 part in 1e16 over a window of width ~1e-7 in ln r, so its two terms,
  which nearly cancel there, are not subtracted as they stand: the search
  minimizes the objective's change from its value at the stationarity
  estimate, P expm1(-2n t) - Q expm1(-beta t) at a distance t in ln r, which
  floats resolve to ~1e-14 in ln r. Only the reported energy, one value at
  the minimizer found, is evaluated in mpmath.

* ``radial_ground_state`` solves the n = 1 reduced radial equation by
  Numerov sweeps in x = ln r, with the grid, each sweep's cutoff and the
  energy bracket scaled by the closed-form estimate. Near the origin the
  regular solution is its power series in r, so each sweep starts where the
  series' first-order term reaches 0.1, from the full series at the sweep's
  energy, and the grid points inside that come from the series too. Node
  counting isolates the level and a bracketed root of the matching
  condition polishes it.
  Both the full-Laplacian and half-Laplacian kinetic conventions are
  supported, so the -1/4 and -1/2 hartree ground levels of the 3-D Coulomb
  problem can each be pinned.
"""

from __future__ import annotations

import math
import numbers
import operator
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
from .model import Classification, classify_coupling
from .potential import LN_2
from .signedlog import SignedLogReal
from .spectrum import EnergyQuery, e0_general


@dataclass(frozen=True)
class VeffMinimum:
    """The searched minimum; ``evaluations`` counts objective calls."""

    r_star: float
    e_min: SignedLogReal
    ln_r_star: float
    evaluations: int


# Precision of the reported energy. Around the minimum V_eff is flat as
# delta^2: relative to |V_min| it rises by n beta delta^2 at a distance delta
# in ln r (V'' / |V_min| = 2n beta there). Resolving delta = 1e-12 max(1,
# |ln r*|) as a difference of the two terms of V would take relative
# differences of 1e-24, so the search takes none: it minimizes the change from
# the seed, whose float noise, ~1e-16 |t| 2n beta / (2n - beta), sits below
# n beta t^2 for every |t| above ~1e-15. Only the energy at the minimizer found
# is the difference itself; its two terms are at most 2n / (2n - beta) times
# |V_min| and cancel, so 40 digits leave over 35 for it.
_VEFF_DPS = 40
_VEFF_TOL = 1e-12  # search tolerance in ln r, relative to max(1, |ln r*|)
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # 0.381966...
_MAX_SEARCH = 200


def _exact_sum(*terms: tuple[int, float]) -> float:
    """The sum of k v over the (k, v) pairs, rounded once. Every float is a
    dyadic fraction, so the exact sum is one integer over the largest
    denominator, and int true division rounds it correctly."""
    ratios = [(k, *v.as_integer_ratio()) for k, v in terms]
    den = max(d for _, _, d in ratios)
    return sum(k * num * (den // d) for k, num, d in ratios) / den


def _change_from_seed(t: float, p: float, q: float, two_n: int, beta: int) -> float:
    """V_eff / |V(r*)| at ln r = x_seed + t less its value at the seed, for
    V_eff / |V(r*)| = p e^(-2n t) - q e^(-beta t); +inf once e^(-2n t)
    overflows, far inside the seed."""
    try:
        return p * math.expm1(-two_n * t) - q * math.expm1(-beta * t)
    except OverflowError:
        return math.inf


def minimize_v_eff(q: EnergyQuery) -> VeffMinimum:
    """Locate the interior minimum of the effective potential by search.

    The bracket is centered on the stationarity estimate
    r*^(2n-beta) = 2n (D/2)^(2n) / (alpha beta), where the objective is 0 and
    positive everywhere else, so the minimum is interior by construction; its
    edges are tested once all the same. Brent's parabolic-interpolation search
    (Brent 1973, ch. 5) then starts from the bracket's golden point, off the
    estimate, and the minimizer it finds is cross-checked against the
    estimate to 1e-10 relative in ln r. Raises NoMinimumError when no
    interior minimum exists, that is unless ``classify_coupling`` calls the
    query bound.
    """
    sign = q.alpha.sign if q.alpha is not None else 0
    tag = classify_coupling(q.beta, sign, q.n)
    if tag is not Classification.BOUND:
        raise NoMinimumError(
            f"no interior minimum for alpha sign {sign}, beta={q.beta}, n={q.n}: {tag.value}"
        )
    two_n, beta = 2 * q.n, q.beta
    ln_amp = two_n * (math.log(q.D) - LN_2)  # ln A, A = (D/2)^(2n)
    x_seed = (math.log(two_n) + ln_amp - q.alpha.lnmag - math.log(beta)) / (two_n - beta)
    # ln |V_eff(r*)|: the objective is divided by it, so that its values near
    # the minimum are of order 1
    ln_scale = q.alpha.lnmag - beta * x_seed + math.log1p(-beta / two_n)
    # both terms at the seed, from their exponents as the float inputs give
    # them; the stationarity identity p = beta / (2n - beta) is not used
    p_seed = math.exp(_exact_sum((1, ln_amp), (-1, ln_scale), (-two_n, x_seed)))
    q_seed = math.exp(_exact_sum((1, q.alpha.lnmag), (-1, ln_scale), (-beta, x_seed)))
    evaluations = 0

    def f(x: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return _change_from_seed(x - x_seed, p_seed, q_seed, two_n, beta)

    f_seed = f(x_seed)
    # 1 in ln r, narrowed above beta = 32 so that e^(-beta t) stays above the
    # objective's float resolution across the bracket: on a plateau where it
    # does not, every value reads q - p and ties would lead the search off.
    # The objective is smallest at the edges for n = 1, beta = 1, t = +1,
    # where it reads 0.40.
    half = min(1.0, 32.0 / beta)
    a, b = x_seed - half, x_seed + half
    if not f(a) > f_seed < f(b):
        raise NoMinimumError("failed to bracket an interior minimum")

    # Brent's search state: x is the best point so far, w the second best
    # and v the one before it
    tol = _VEFF_TOL * max(1.0, abs(x_seed))
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    for _ in range(_MAX_SEARCH):
        mid = 0.5 * (a + b)
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            s = (x - v) * (fx - fw)
            p = (x - v) * s - (x - w) * r
            s = 2.0 * (s - r)
            if s > 0.0:
                p = -p
            s = abs(s)
            e_prev, e = e, d
            # written so that a nan step falls through to the golden one
            if abs(p) < abs(0.5 * s * e_prev) and s * (a - x) < p < s * (b - x):
                golden = False
                d = p / s
                if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                    d = math.copysign(tol, mid - x)
        if golden:
            e = (a if x >= mid else b) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    else:
        raise NoConvergenceError(f"V_eff search unresolved after {_MAX_SEARCH} steps")

    # the energy is the objective itself at the minimizer, in full
    with mpmath.workdps(_VEFF_DPS):
        x_mp = mpmath.mpf(x)  # before the products, which floats would round
        kin = mpmath.exp(mpmath.mpf(ln_amp) - ln_scale - two_n * x_mp)
        f_min = kin - mpmath.exp(mpmath.mpf(q.alpha.lnmag) - ln_scale - beta * x_mp)
        if f_min >= 0:
            raise NoMinimumError("search ended on a non-negative minimum")
        ln_e = float(mpmath.log(-f_min) + ln_scale)

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
    """``u`` normalized on ``grid``, which steps by ``h`` in ln r up to the
    cutoff ``r_max``; ``sweeps`` counts node-count and matching sweeps and
    ``steps`` the Numerov steps summed over every sweep."""

    grid: np.ndarray
    u: np.ndarray
    energy: float
    nodes: int
    kinetic_convention: KineticConvention
    r_max: float
    h: float
    sweeps: int
    steps: int


_STEP = 0.005  # Numerov step in ln r: every level varies slowly in ln r
_INNER = 1e-5  # inner grid edge, as a fraction of the length alpha / |E_est|
_TAIL = 40.0  # decay lengths sqrt(c0 / |E|) kept beyond the outer turning point
_DEEP = 8.0  # lower bracket edge, in units of |E_est| / c0
_NARROW = 1.1  # node-count bisection stops once lo / hi is at most this
_REL_TOL = 1e-10
_MAX_POLISH = 60
_BIG = 1e250
# Sweeps start at the last mesh point where the series' first-order term
# alpha r / (c0 (D-1)) is at most this.
_SERIES_EDGE = 0.1
# Terms of the series summed. Up to the sweep start z / (D-1) <= 0.1, and the
# energy bracket keeps |q| <= 8 z^2 / D^2, so |T_j| falls below 2^-60 of the
# sum by j = 13 for every D up to the limit.
_SERIES_TERMS = 14
# Largest D solved. The step in ln r is fixed, so the Numerov factor
# 1 - _STEP^2 (D-2)^2 / 48 falls with D, to 0 near D = 1388; the first D that
# fails to solve is 1295 (half Laplacian). Every D up to the limit solves in
# both conventions at alpha = 1e-100, 1 and 1e100.
RADIAL_D_LIMIT = 1200
# Largest excitation k solved. The fixed step lets the level's relative error
# grow as ~k^4: at D = 3 it is 1e-7 at the limit, 9e-3 at k = 300 and 16 % at
# k = 600 (half Laplacian); at D = 1200 it is 2e-5 at the limit.
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
    excitation <= RADIAL_EXCITATION_LIMIT is supported; an attractive
    beta >= 2 falls to the center and is rejected as singular. Every length
    and energy scale comes from the closed-form estimate E_est, so the solve
    costs the same at any alpha.
    """
    if not isinstance(D, int) or isinstance(D, bool) or D < 3:
        raise InvalidParameterError(
            "centrifugal-irregular", f"radial solver needs integer D >= 3, got {D!r}"
        )
    if D > RADIAL_D_LIMIT:
        raise InvalidParameterError(
            "out-of-range", f"radial solver needs D <= {RADIAL_D_LIMIT}, got {D}"
        )
    if not isinstance(beta, int) or isinstance(beta, bool):
        raise InvalidParameterError("non-integer", f"beta must be an integer, got {beta!r}")
    if not isinstance(excitation, int) or isinstance(excitation, bool):
        raise InvalidParameterError(
            "non-integer", f"excitation must be an integer, got {excitation!r}"
        )
    if not isinstance(convention, KineticConvention):
        raise InvalidParameterError(
            "bad-convention", f"convention must be a KineticConvention, got {convention!r}"
        )
    if not isinstance(alpha, numbers.Real) or isinstance(alpha, bool):
        raise InvalidParameterError("non-real", f"alpha must be a real number, got {alpha!r}")
    if not 1e-100 <= abs(alpha) <= 1e100:  # also catches 0, nan and inf
        raise InvalidParameterError(
            "out-of-range", f"radial solver needs 1e-100 <= |alpha| <= 1e100, got {alpha!r}"
        )
    alpha = float(alpha)
    tag = classify_coupling(beta, 1 if alpha > 0 else -1, 1)
    if tag in (Classification.DIVERGENT, Classification.SINGULAR):
        raise SingularPotentialError(
            f"beta = {beta} >= 2: fall-to-center, no radial ground state"
        )
    if tag is not Classification.BOUND:
        raise InvalidParameterError(
            tag.value, f"radial solver needs alpha > 0 and beta = 1: {tag.value} coupling"
        )
    if excitation < 0:
        raise InvalidParameterError("bad-excitation", "excitation must be >= 0")
    if excitation > RADIAL_EXCITATION_LIMIT:
        raise InvalidParameterError(
            "out-of-range",
            f"radial solver needs excitation <= {RADIAL_EXCITATION_LIMIT}, got {excitation}",
        )

    c0 = 1.0 if convention is KineticConvention.FULL_LAPLACIAN else 0.5
    estimate = e0_general(EnergyQuery(SignedLogReal.from_float(alpha), beta, 1, D))
    scale = math.exp(estimate.energy.lnmag)
    # the closed form is the large-D limit: the true ground level is deeper by
    # at most (D / (D-1))^2 / c0, and the k-th level lies below |E_est| / (k+1)^2
    lo = -_DEEP * scale / c0
    hi = -scale / (excitation + 1) ** 2
    r_min = _INNER * (alpha / scale)
    problem = _RadialProblem(D, alpha, c0, r_min, hi)
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
        steps=problem.steps,
    )


def _series(z, q, D: int):
    """y / r^((D-2)/2) of the regular solution, the sum of T_j over
    j < _SERIES_TERMS with T_0 = 1 and T_j = -(z T_(j-1) + q T_(j-2)) /
    (j (D-2+j)), at z = alpha r / c0 and q = E r^2 / c0: floats or arrays."""
    total = term = 1.0
    before = 0.0
    for j in range(1, _SERIES_TERMS):
        before, term = term, -(z * term + q * before) / (j * (D - 2 + j))
        total = total + term
    return total


def _sweep(coeffs: list, w: list) -> list:
    """Numerov recurrence w[i+1] = c[i] w[i] - w[i-1] on from the last two
    values of ``w``, appended to it; rescaled as a whole whenever it nears
    overflow."""
    w0, w1 = w[-2], w[-1]
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


def _sweep_end(coeffs: list, w0: float, w1: float) -> tuple[float, float]:
    """The last two values of ``_sweep(coeffs, [w0, w1])``, with the same
    arithmetic and no list."""
    for ci in coeffs:
        w2 = ci * w1 - w0
        if w2 > _BIG or w2 < -_BIG:
            w1 /= _BIG
            w2 /= _BIG
        w0 = w1
        w1 = w2
    return w0, w1


class _RadialProblem:
    """Numerov sweeps in x = ln r for one (D, alpha, c0) at beta = 1.

    With u = r^(1/2) y the radial equation becomes
    y'' = [(D-2)^2/4 + r^2 (-E - alpha / r) / c0] y, whose regular solution
    is y = r^((D-2)/2) sum_j T_j (``_series``). Where its first-order term
    alpha r / (c0 (D-1)) is small the series is the solution, so every sweep
    starts at ``start``, the last mesh point where that term is at most
    _SERIES_EDGE (never before the first), from the series at the sweep's
    energy; y is scaled to r^((D-2)/2) = 1 there. A sweep at energy E stops
    at r_stop(E).
    """

    def __init__(self, D: int, alpha: float, c0: float, r_min: float, e_top: float):
        self.D = D
        self.alpha = alpha
        self.c0 = c0
        self.sweeps = 0
        self.steps = 0
        self.ln_r_min = math.log(r_min)
        n_pts = self._points(e_top)
        self.rr = r_min * np.exp(_STEP * np.arange(n_pts))
        k = _STEP * _STEP / 12.0
        self.base = 1.0 - k * ((D - 2) ** 2 / 4.0 - (alpha / c0) * self.rr)
        self.slope = (k / c0) * self.rr**2
        self.z = (alpha / c0) * self.rr
        self.start = max(0, int(np.searchsorted(self.z / (D - 1), _SERIES_EDGE, "right")) - 1)
        # r^((D-2)/2) one step past the start, relative to the start
        self.lift = math.exp((D - 2) / 2.0 * _STEP)

    def r_stop(self, energy: float) -> float:
        """Outer turning point plus _TAIL decay lengths."""
        return self.alpha / -energy + _TAIL * math.sqrt(self.c0 / -energy)

    def _points(self, energy: float) -> int:
        return int(math.ceil((math.log(self.r_stop(energy)) - self.ln_r_min) / _STEP)) + 1

    def _coeffs(self, energy: float, first: int) -> tuple[np.ndarray, list]:
        """t = 1 - h^2 g / 12 and the recurrence factors 12 / t - 10 on mesh
        points first .. r_stop(energy)."""
        n_pts = self._points(energy)
        t = self.base[first:n_pts] + self.slope[first:n_pts] * energy
        return t, (12.0 / t - 10.0).tolist()

    def _q_per_z2(self, energy: float) -> float:
        """E c0 / alpha^2, so that q = E r^2 / c0 is this times z^2 at any
        alpha without overflow."""
        return (energy / self.alpha) * (self.c0 / self.alpha)

    def _start(self, energy: float, t: np.ndarray) -> tuple[float, float]:
        """w = t y at the first two swept points, from the series."""
        s = self.start
        eps = self._q_per_z2(energy)
        z0, z1 = float(self.z[s]), float(self.z[s + 1])
        y0 = _series(z0, eps * z0 * z0, self.D)
        y1 = self.lift * _series(z1, eps * z1 * z1, self.D)
        return float(t[0]) * y0, float(t[1]) * y1

    def nodes_at(self, energy: float, limit: int) -> int:
        """Sign changes of the outward solution up to r_stop(energy); stops
        counting once the count exceeds ``limit``."""
        t, c = self._coeffs(energy, self.start)
        self.sweeps += 1
        w0, w1 = self._start(energy, t)
        nodes = 0
        pos = True
        rest = iter(c[1:-1])
        for ci in rest:
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
        # what a break left of the iterator is steps not taken
        self.steps += len(c) - 2 - operator.length_hint(rest)
        return nodes

    def _match(self, energy: float, m: int) -> float:
        """The sine of the angle between the (w[m], w[m+1]) pairs of the
        outward sweep to point m + 1 and the inward sweep from r_stop(energy)
        to point m: continuous in the energy and zero exactly where the two
        solutions are proportional. The inward sweep starts at zero one point
        past the last mesh point, where the decaying tail is stable.
        """
        t, c = self._coeffs(energy, self.start)
        self.sweeps += 2
        self.steps += len(c) - 1
        i = m - self.start  # the matching point in the swept arrays
        out_m, out_m1 = _sweep_end(c[1 : i + 1], *self._start(energy, t))
        inn_m1, inn_m = _sweep_end(c[-1:i:-1], 0.0, 1.0)
        # each pair scaled to unit length first: near _BIG the raw cross
        # product would overflow to inf - inf
        na, nb = math.hypot(out_m, out_m1), math.hypot(inn_m, inn_m1)
        return (out_m / na) * (inn_m1 / nb) - (out_m1 / na) * (inn_m / nb)

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
        f_lo = self._match(lo, m)
        f_hi = self._match(hi, m)
        if (f_lo > 0.0) == (f_hi > 0.0):
            raise NoConvergenceError(f"matching condition keeps its sign over [{lo}, {hi}]")
        side = 0
        for _ in range(_MAX_POLISH):
            energy = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            f = self._match(energy, m)
            if f == 0.0 or min(energy - lo, hi - energy) <= _REL_TOL * -energy:
                return (energy, *self._assemble(energy, m))
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

    def _assemble(self, energy: float, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The full outward and inward solutions at ``energy``, glued at point
        m into u = r^(1/2) w / t. Below the sweep start w is t y from the
        series, on the scale the outward sweep starts from."""
        s = self.start
        t, c = self._coeffs(energy, 0)
        self.steps += len(c) - s - 1
        z = self.z[:s]
        lift = np.exp((self.D - 2) / 2.0 * _STEP * np.arange(-s, 0))
        y = lift * _series(z, self._q_per_z2(energy) * z * z, self.D)
        out = _sweep(c[s + 1 : m + 1], (t[:s] * y).tolist() + list(self._start(energy, t[s:])))
        inn = _sweep(c[-1:m:-1], [0.0, 1.0])[:0:-1]
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
