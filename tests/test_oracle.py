import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimspec import (
    EnergyQuery,
    InvalidParameterError,
    KineticConvention,
    NoMinimumError,
    Scheme,
    SignedLogReal,
    SingularPotentialError,
    alpha_coefficient,
    bound_dims,
    e0_general,
    minimize_v_eff,
    radial_ground_state,
)
from dimspec.oracle import (
    RADIAL_D_LIMIT,
    RADIAL_EXCITATION_LIMIT,
    _change_from_seed,
    _hardy_floor,
    _log_path,
    _ratio_list,
    _ratio_sweep,
    _series,
)
from dimspec.spectrum import N_LIMIT

# Frozen from the development run of this module's own search (the value the
# closed forms are then required to reproduce).
ORACLE_R_STAR_7_3 = 20.342383994195174


def query(D, n, m):
    spec = alpha_coefficient(D, m)
    return EnergyQuery(spec.alpha, D - 2 * m, n, D)


class TestMinimizeVeff:
    def test_analytic_three_dim_case(self):
        found = minimize_v_eff(EnergyQuery(SignedLogReal(1, 0.0), 1, 1, 3))
        assert found.r_star == pytest.approx(4.5, rel=1e-9)
        assert found.e_min.to_float() == pytest.approx(-1.0 / 9.0, rel=1e-10)

    def test_frozen_seven_three(self):
        found = minimize_v_eff(query(7, 3, 3))
        assert found.r_star == pytest.approx(ORACLE_R_STAR_7_3, rel=1e-9)

    def test_equals_closed_form_on_sample(self):
        for (D, n, m) in [(3, 1, 1), (7, 3, 3), (9, 3, 3), (5, 3, 1), (11, 5, 5)]:
            q = query(D, n, m)
            found = minimize_v_eff(q)
            closed = e0_general(q)
            gap = abs(found.e_min.lnmag - closed.energy.lnmag)
            assert gap <= 1e-8 * max(1.0, abs(closed.energy.lnmag)), (D, n, m)

    def test_analytic_case_effort(self):
        found = minimize_v_eff(EnergyQuery(SignedLogReal(1, 0.0), 1, 1, 3))
        assert found.evaluations < 40

    @given(
        D=st.integers(min_value=2, max_value=64),
        n=st.integers(min_value=1, max_value=16),
        ln_alpha=st.floats(min_value=math.log(1e-100), max_value=math.log(1e100)),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_stationarity_across_the_window(self, D, n, ln_alpha, data):
        beta = data.draw(st.integers(min_value=1, max_value=2 * n - 1))
        found = minimize_v_eff(EnergyQuery(SignedLogReal(1, ln_alpha), beta, n, D))
        # r*^(2n-beta) = 2n (D/2)^(2n) / (alpha beta), where the centrifugal
        # term is beta / 2n of the coupling term
        x = (math.log(2 * n) + 2 * n * math.log(D / 2) - ln_alpha - math.log(beta)) / (
            2 * n - beta
        )
        ln_e = ln_alpha - beta * x + math.log1p(-beta / (2 * n))
        assert abs(found.e_min.lnmag - ln_e) <= 1e-8 * max(1.0, abs(ln_e))
        assert abs(found.ln_r_star - x) <= 1e-9

    def test_no_minimum_at_divergent_boundary(self):
        with pytest.raises(NoMinimumError):
            minimize_v_eff(EnergyQuery(SignedLogReal(1, 0.0), 2, 1, 4))

    def test_no_minimum_for_repulsive(self):
        with pytest.raises(NoMinimumError):
            minimize_v_eff(EnergyQuery(SignedLogReal.from_float(-1.0), 1, 1, 3))

    def test_no_minimum_without_coupling(self):
        # alpha is None at beta = 0, as alpha_coefficient returns it there
        with pytest.raises(NoMinimumError, match="logarithmic"):
            minimize_v_eff(EnergyQuery(None, 0, 1, 2))

    def test_first_order_condition_at_r_star(self):
        # 2n A r*^-2n == alpha beta r*^-beta at the minimizer, to 1e-9
        for n, scheme in [(1, Scheme.M_EQUALS_N), (3, Scheme.M_EQUALS_N), (3, Scheme.M_EQUALS_ONE)]:
            m = n if scheme is Scheme.M_EQUALS_N else 1
            for D in bound_dims(n, scheme).members:
                q = query(D, n, m)
                found = minimize_v_eff(q)
                ln_a = 2 * n * math.log(D / 2)  # A = (D/2)^(2n)
                x = found.ln_r_star
                lhs = math.log(2 * n) + ln_a - 2 * n * x
                rhs = q.alpha.lnmag + math.log(q.beta) - q.beta * x
                assert abs(lhs - rhs) <= 1e-9, (D, n, scheme)


class TestRadialGroundState:
    def test_full_laplacian_ground(self):
        sol = radial_ground_state(3, 1.0, 1, KineticConvention.FULL_LAPLACIAN, 0)
        assert sol.energy == pytest.approx(-0.25, abs=1e-6)
        assert sol.nodes == 0

    def test_half_laplacian_ground(self):
        sol = radial_ground_state(3, 1.0, 1, KineticConvention.HALF_LAPLACIAN, 0)
        assert sol.energy == pytest.approx(-0.5, abs=1e-6)
        assert sol.nodes == 0

    def test_ground_state_sweep_budget(self):
        # from the Hardy floor -1 and the upper edge -1/9, two node counts and
        # three bisections reach lo / hi <= 1.6; Brent's zero finder then
        # takes six matches of two sweeps each
        sol = radial_ground_state(3, 1.0, 1, KineticConvention.FULL_LAPLACIAN, 0)
        assert sol.sweeps <= 17
        assert sol.sweeps - 2 * sol.matches == 5

    def test_wavefunction_shape(self):
        sol = radial_ground_state(3, 1.0, 1, KineticConvention.FULL_LAPLACIAN, 0)
        # normalized, vanishing at both ends, peaked at the analytic maximum
        norm = float(np.trapezoid(sol.u**2, sol.grid))
        assert norm == pytest.approx(1.0, abs=1e-6)
        peak = abs(sol.u).max()
        assert abs(sol.u[0]) < 1e-2 * peak
        assert abs(sol.u[-1]) < 1e-6 * peak
        r_peak = sol.grid[int(np.argmax(abs(sol.u)))]
        assert r_peak == pytest.approx(2.0, abs=0.01)  # u ~ r e^(-r/2) peaks at r = 2
        assert peak == pytest.approx(2.0 * math.exp(-1.0) / math.sqrt(2.0), abs=1e-3)

    @pytest.mark.parametrize(
        "kwargs,error",
        [
            (dict(D=5, alpha=1.0, beta=3), SingularPotentialError),
            (dict(D=4, alpha=1.0, beta=2), SingularPotentialError),
            (dict(D=3, alpha=1.0, beta=0), InvalidParameterError),
            (dict(D=2, alpha=1.0, beta=1), InvalidParameterError),
            (dict(D=3, alpha=-1.0, beta=1), InvalidParameterError),
            (dict(D=3, alpha=math.nan, beta=1), InvalidParameterError),
            (dict(D=3, alpha=math.inf, beta=1), InvalidParameterError),
            (dict(D=3, alpha=-math.inf, beta=1), InvalidParameterError),
            (dict(D=3, alpha=1e101, beta=1), InvalidParameterError),
            (dict(D=3, alpha=1.0, beta=1, excitation=-1), InvalidParameterError),
            (dict(D=RADIAL_D_LIMIT + 1, alpha=1.0, beta=1), InvalidParameterError),
            # a repulsive coupling is repulsive whatever its exponent
            (dict(D=5, alpha=-1.0, beta=3), InvalidParameterError),
            # a convention's value is not a convention: "full" was once solved
            # with the half-Laplacian c0
            (dict(D=3, alpha=1.0, beta=1, convention="full"), InvalidParameterError),
            (dict(D=3, alpha=1.0, beta=1, convention=None), InvalidParameterError),
            (dict(D=3, alpha=1.0, beta=1, excitation=1.5), InvalidParameterError),
            (dict(D=3, alpha=1.0, beta=1, excitation="0"), InvalidParameterError),
            (dict(D=3, alpha=1.0, beta=1, excitation=True), InvalidParameterError),
            (dict(D=3, alpha="1", beta=1), InvalidParameterError),
            (dict(D=3, alpha=True, beta=1), InvalidParameterError),
            (dict(D=3, alpha=10**400, beta=1), InvalidParameterError),
        ],
    )
    def test_rejections(self, kwargs, error):
        with pytest.raises(error):
            radial_ground_state(**kwargs)

    @pytest.mark.parametrize("alpha", [1, Fraction(1), np.float64(1.0)])
    def test_any_real_alpha(self, alpha):
        sol = radial_ground_state(3, alpha, 1, KineticConvention.FULL_LAPLACIAN, 0)
        assert sol.energy == radial_ground_state(3, 1.0).energy

    @pytest.mark.parametrize("convention", list(KineticConvention))
    def test_steps_skip_the_power_law_core(self, convention):
        # the sweeps start where the series' first-order term reaches 0.1, past
        # about half the grid at D = 3, and the matching sweeps meet halfway
        sol = radial_ground_state(3, 1.0, 1, convention, 0)
        assert sol.steps < 0.45 * sol.sweeps * len(sol.grid)

    def test_wavefunction_matches_the_exact_state(self):
        # at D = 3 the full-Laplacian ground state is r e^(-r/2), here scaled
        # by a least-squares fit; the grid's inner points, r <= 0.2, come from
        # the series and not from a sweep
        sol = radial_ground_state(3, 1.0, 1, KineticConvention.FULL_LAPLACIAN, 0)
        exact = sol.grid * np.exp(-sol.grid / 2.0)
        exact *= float(np.dot(sol.u, exact) / np.dot(exact, exact))
        assert float(np.abs(sol.u - exact).max()) <= 1e-8
        inner = sol.grid <= 0.2
        assert inner[:1000].all()
        assert float(np.abs(sol.u[inner] / exact[inner] - 1.0).max()) <= 1e-10


def exact_level(D, alpha, convention, k):
    """E_k = -alpha^2 / (4 c0 (k + (D-1)/2)^2), the exact n = 1, beta = 1 level."""
    c0 = 1.0 if convention is KineticConvention.FULL_LAPLACIAN else 0.5
    return -(alpha * alpha) / (4.0 * c0 * (k + (D - 1) / 2) ** 2)


EXACT_LEVEL_CASES = [
    (D, alpha, KineticConvention.FULL_LAPLACIAN, k)
    for D in (3, 25, 64)
    for k in (0, 3)
    for alpha in (1e-6, 1e6)
] + [
    (4, 1.0, KineticConvention.FULL_LAPLACIAN, 1),
    (4, 1.0, KineticConvention.HALF_LAPLACIAN, 1),
    # the first D, per convention, where an unscaled matching cross product overflows to nan
    (690, 1.0, KineticConvention.FULL_LAPLACIAN, 0),
    (736, 1.0, KineticConvention.HALF_LAPLACIAN, 0),
] + [(RADIAL_D_LIMIT, 1.0, convention, 0) for convention in KineticConvention]


@pytest.mark.parametrize("D,alpha,convention,k", EXACT_LEVEL_CASES)
def test_radial_matches_exact_level(D, alpha, convention, k):
    sol = radial_ground_state(D, alpha, 1, convention, k)
    exact = exact_level(D, alpha, convention, k)
    assert abs(sol.energy - exact) <= 1e-6 * abs(exact)
    assert sol.nodes == k


def test_low_levels_within_the_step_error():
    # the fixed step's error grows as h^4 with D and k: within 1e-10 up to
    # D = 5, 4.0e-10 at D = 25 and 1.1e-9 at D = 64 (k = 1), the same at any
    # alpha and in both conventions; halving the step shrinks it 16-fold
    worst = {}
    for D, k, convention, alpha in itertools.product(
        (3, 4, 5, 25, 64), (0, 1), KineticConvention, (1e-6, 1.0, 1e6)
    ):
        exact = exact_level(D, alpha, convention, k)
        sol = radial_ground_state(D, alpha, 1, convention, k)
        assert sol.nodes == k
        worst[D] = max(worst.get(D, 0.0), abs(sol.energy - exact) / abs(exact))
    assert max(worst[D] for D in (3, 4, 5)) <= 1e-10
    assert max(worst[D] for D in (25, 64)) <= 2e-9


class TestRadialParts:
    @pytest.mark.parametrize("D", [3, 4, 25, RADIAL_D_LIMIT])
    def test_series_is_the_regular_coulomb_solution(self, D):
        # y / r^((D-2)/2) = e^(-kappa r) M(l + 1 - eta, 2l + 2, 2 kappa r), with
        # kappa = sqrt(-E / c0), eta = alpha / (2 c0 kappa), 2l + 2 = D - 1
        alpha, c0, energy = 1.0, 0.5, -0.3 / D**2
        kappa = math.sqrt(-energy / c0)
        eta = alpha / (2.0 * c0 * kappa)
        for z in (1e-3, 0.01 * (D - 1), 0.1 * (D - 1)):
            r = c0 * z / alpha
            series = _series(z, energy * c0 / alpha**2, D)
            exact = mpmath.exp(-kappa * r) * mpmath.hyp1f1(
                (D - 1) / 2 - eta, D - 1, 2 * kappa * r
            )
            assert abs(series - float(exact)) <= 1e-15

    @pytest.mark.parametrize(
        "coeffs,w0,w1",
        [
            ([2.5, 1.5, 0.3, -1.0, 2.0, 1.9, -0.5], 1.0, 2.0),
            ([2.5, 1.5, 0.3, -1.0, 2.0, 1.9, -0.5], 0.0, 1.0),  # an inward start
            ([0.5, 3.0, 2.0, 1.0, -2.0], 1.0, 2.0),  # w[2] = 0 exactly
            ([1e200, 1e200, 2.0, -3.0, 0.1], 1.0, 1.0),  # w passes 1e300
            ([2.0] * 12 + [1.0, 0.5, -0.2], 1e-3, 3e-3),
            ([2.0, 0.5, 3.0, 2.0, 1.5], 0.0, 1.0),  # inward, w[3] = 0 exactly
        ],
        ids=["mixed", "inward-start", "exact-zero", "past-1e300", "growing", "inward-zero"],
    )
    def test_ratio_sweep_is_the_w_recurrence(self, coeffs, w0, w1):
        # the sweeps carry R = w[i+1] / w[i]; the exact w recurrence must give
        # the same sign changes, ratios and ln|w| wherever w is not zero
        w = [Fraction(w0), Fraction(w1)]
        for ci in coeffs:
            w.append(Fraction(ci) * w[-1] - w[-2])
        signs = [x > 0 for x in w[1:] if x != 0]
        nodes = sum(a != b for a, b in zip(signs, signs[1:]))
        start = w1 / w0 if w0 else math.inf
        ratio, negatives, steps = _ratio_sweep(coeffs, start)
        assert (negatives, steps) == (nodes, len(coeffs))
        assert ratio == pytest.approx(float(w[-1] / w[-2]), rel=1e-12)
        ratios = _ratio_list(coeffs, start)
        assert ratios[-1] == ratio
        for got, (a, b) in zip(ratios, zip(w[1:], w[2:])):
            if a != 0 and b != 0:
                assert got == pytest.approx(float(b / a), rel=1e-12)
        # ln|w| and its sign from the ratios; an inward sweep is read from its
        # far end, where w[j+1] / w[j] = 1 / S
        if w0:
            ln, flips = _log_path(np.array([start] + ratios))
        else:
            with np.errstate(divide="ignore"):
                ln, flips = _log_path(1.0 / np.array(ratios[::-1]))
            w = w[:0:-1]
        for x, ln_x, flip in zip(w, ln, flips):
            if x == 0:
                assert ln_x == -math.inf
            else:
                rel = x / w[0]
                exact = math.log(abs(rel.numerator)) - math.log(rel.denominator)
                assert ln_x == pytest.approx(exact, rel=1e-12, abs=1e-12)
                assert (-1) ** int(flip) == (1 if rel > 0 else -1)

    def test_ratio_sweep_stops_past_the_limit(self):
        # with every c = -3 every ratio is negative: each step is a sign change
        ratio, negatives, steps = _ratio_sweep([-3.0] * 10, 1.0, limit=3)
        assert (negatives, steps) == (4, 4)
        assert ratio < 0.0


@settings(max_examples=300, deadline=None)
@given(
    D=st.integers(3, RADIAL_D_LIMIT),
    k=st.integers(0, RADIAL_EXCITATION_LIMIT),
    convention=st.sampled_from(KineticConvention),
    ln_alpha=st.floats(math.log(1e-100), math.log(1e100)),
)
def test_hardy_floor_lies_below_every_level(D, k, convention, ln_alpha):
    alpha = math.exp(ln_alpha)
    c0 = 1.0 if convention is KineticConvention.FULL_LAPLACIAN else 0.5
    assert _hardy_floor(D, alpha, c0) < exact_level(D, alpha, convention, k) < 0.0


@settings(max_examples=40, deadline=None)
@given(
    D=st.integers(3, RADIAL_D_LIMIT),
    k=st.integers(0, RADIAL_EXCITATION_LIMIT),
    convention=st.sampled_from(KineticConvention),
    alpha=st.sampled_from([1e-100, 1.0, 1e100]),
)
def test_solved_levels_lie_above_the_hardy_floor(D, k, convention, alpha):
    sol = radial_ground_state(D, alpha, 1, convention, k)
    c0 = 1.0 if convention is KineticConvention.FULL_LAPLACIAN else 0.5
    assert sol.energy >= _hardy_floor(D, alpha, c0)
    assert sol.nodes == k


@pytest.mark.parametrize("convention", list(KineticConvention))
@pytest.mark.parametrize("D", [3, RADIAL_D_LIMIT])
def test_radial_excitation_limit(D, convention):
    # the fixed step in ln r lets the error grow as ~k^4: the limit keeps it
    # within 1e-4 at both ends of the D range, and anything above is rejected
    k = RADIAL_EXCITATION_LIMIT
    sol = radial_ground_state(D, 1.0, 1, convention, k)
    exact = exact_level(D, 1.0, convention, k)
    assert abs(sol.energy - exact) <= 1e-4 * abs(exact)
    assert sol.nodes == k
    with pytest.raises(InvalidParameterError) as err:
        radial_ground_state(D, 1.0, 1, convention, k + 1)
    assert err.value.code == "out-of-range"


def _v_eff_reference(q: EnergyQuery, x: float) -> tuple:
    """V_eff and its first two derivatives in x = ln r, at 40 digits, with
    A = (D/2)^(2n) exact: (A e^(-2n x) - alpha e^(-beta x), V', V'')."""
    two_n, beta = 2 * q.n, q.beta
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        kin = (mpmath.mpf(q.D) / 2) ** two_n * mpmath.exp(-two_n * x)
        pot = mpmath.exp(q.alpha.lnmag - beta * x)
        return (
            kin - pot,
            -two_n * kin + beta * pot,
            two_n**2 * kin - beta**2 * pot,
        )


_PARITY_GRID = [
    (D, n, beta, alpha)
    for D in range(2, 65)
    for n in range(1, 17)
    for beta in sorted({1, n, 2 * n - 1})
    for alpha in (1e-100, 1.0, 1e100)
]


class TestVeffObjective:
    def test_parity_with_a_reference_objective(self):
        # one Newton step on the reference objective from the minimizer found
        # lands within ~1e-23 of the reference minimizer, far inside 1e-12
        worst_x = worst_e = 0.0
        most_evaluations = 0
        for D, n, beta, alpha in _PARITY_GRID:
            q = EnergyQuery(SignedLogReal.from_float(alpha), beta, n, D)
            found = minimize_v_eff(q)
            v, dv, d2v = _v_eff_reference(q, found.ln_r_star)
            x_ref = found.ln_r_star - dv / d2v
            worst_x = max(worst_x, float(abs(found.ln_r_star - x_ref) / max(1, abs(x_ref))))
            ln_e = float(mpmath.log(-v))
            worst_e = max(worst_e, abs(found.e_min.lnmag - ln_e) / max(1.0, abs(ln_e)))
            most_evaluations = max(most_evaluations, found.evaluations)
        assert worst_x <= 1e-12
        assert worst_e <= 1e-14
        assert most_evaluations <= 23

    def test_far_inside_the_seed_reads_inf(self):
        # e^(2000) overflows a float: the objective reads +inf, it does not raise
        assert _change_from_seed(-1000.0, 0.5, 1.5, 2, 1) == math.inf
        assert _change_from_seed(-1000.0, 31.0, 32.0, 32, 31) == math.inf

    @pytest.mark.parametrize("n", [100, N_LIMIT])
    def test_large_n(self, n):
        # the bracket edge inside the seed overflows e^(-2n t) at n = N_LIMIT,
        # and beta > 32 narrows the bracket
        for beta in (1, n, 2 * n - 1):
            for D, alpha in [(3, 1e-100), (64, 1.0), (10_000, 1e100)]:
                q = EnergyQuery(SignedLogReal.from_float(alpha), beta, n, D)
                found = minimize_v_eff(q)
                closed = e0_general(q).energy.lnmag
                gap = abs(found.e_min.lnmag - closed)
                assert gap <= 1e-8 * max(1.0, abs(closed)), (beta, D, alpha)
