import hashlib
import itertools
import math
import random
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimspec import (
    Classification,
    DimspecError,
    EnergyQuery,
    InvalidParameterError,
    KineticConvention,
    NoConvergenceError,
    Scheme,
    SignedLogReal,
    alpha_coefficient,
    bound_dims,
    e0_general,
    minimize_v_eff,
    oracle_equivalence_report,
    radial_ground_state,
)
from dimspec import oracle
from dimspec.model import scheme_m
from dimspec.oracle import (
    RADIAL_D_LIMIT,
    RADIAL_EXCITATION_LIMIT,
    _MAX_POLISH,
    _brent_zero,
    _exact_sum,
    _hardy_floor,
    _log_path,
    _ratio_list,
    _ratio_sweep,
    _series,
    _series_terms,
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
        assert found.evaluations <= 11

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

    @pytest.mark.parametrize("lnmag,n", [(1e308, 1), (-1e308, 1), (-1e200, N_LIMIT)])
    def test_coupling_past_the_float_range(self, lnmag, n):
        with pytest.raises(NoConvergenceError, match="outside the search's float range"):
            minimize_v_eff(EnergyQuery(SignedLogReal(1, lnmag), 1, n, 3))

    @pytest.mark.parametrize(
        "n,beta,D,lnmag,cause",
        [
            (10_000, 19_999, 2, 2e13, "collapses onto the seed"),
            (10_000, 19_999, 2, -2e13, "collapses onto the seed"),
            (1, 1, 3, 4e16, "collapses onto the seed"),
            (1, 1, 3, -4e16, "collapses onto the seed"),
            (10_000, 1, 3, 1e19, "lost the bits"),
        ],
    )
    def test_bound_query_past_the_float_resolution(self, n, beta, D, lnmag, cause):
        # bound, as e0_general answers, yet x_seed +- half rounds back onto
        # x_seed, or the seed terms round away their ratio: the search cannot
        # place the root in floats, which is no proof that there is none
        q = EnergyQuery(SignedLogReal(1, lnmag), beta, n, D)
        assert e0_general(q).classification is Classification.BOUND
        match = f"outside the search's float range: .*{cause}"
        with pytest.raises(NoConvergenceError, match=match):
            minimize_v_eff(q)

    def test_no_minimum_at_divergent_boundary(self):
        with pytest.raises(InvalidParameterError) as info:
            minimize_v_eff(EnergyQuery(SignedLogReal(1, 0.0), 2, 1, 4))
        assert info.value.code == "divergent"

    def test_no_minimum_for_repulsive(self):
        with pytest.raises(InvalidParameterError) as info:
            minimize_v_eff(EnergyQuery(SignedLogReal.from_float(-1.0), 1, 1, 3))
        assert info.value.code == "repulsive"

    def test_no_minimum_without_coupling(self):
        # alpha is None at beta = 0, as alpha_coefficient returns it there
        with pytest.raises(InvalidParameterError, match="logarithmic") as info:
            minimize_v_eff(EnergyQuery(None, 0, 1, 2))
        assert info.value.code == "logarithmic"

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
        # on the coarse mesh, from the Hardy floor -1 and the upper edge -1/9,
        # two node counts and three bisections reach lo / hi <= 1.6, and
        # Brent's zero finder takes six matches of two sweeps each; the fine
        # solve, warm-started about the coarse level, counts no nodes and takes
        # two bracket matches and three Brent steps.
        sol = radial_ground_state(3, 1.0, 1, KineticConvention.FULL_LAPLACIAN, 0)
        assert sol.sweeps - 2 * sol.matches == 5
        assert sol.matches <= 6 + 5

    def test_fine_solve_without_a_sign_change_raises(self, monkeypatch):
        # a warm bracket far narrower than the gap |E_h - E_2h| ~ 1e-9 |E|, never
        # widened, holds no sign change, and the fine mesh has no other path
        monkeypatch.setattr(oracle, "_WARM", 1e-15)
        monkeypatch.setattr(oracle, "_WARM_TRIES", 0)
        match = r"no fine level in \[-0\.2\d+, -0\.2\d+\] about the coarse level -0\.2\d+$"
        with pytest.raises(NoConvergenceError, match=match):
            radial_ground_state(3, 1.0, 1, KineticConvention.FULL_LAPLACIAN, 0)

    @pytest.mark.parametrize("convention", list(KineticConvention))
    def test_widest_bracket_covers_the_widest_gap(self, convention):
        # the fine level lies 15 shift from the coarse one; the gap relative to
        # |E| peaks at D = 152, k = 16 (5.3e-4 over every supported D and k at
        # alpha = 1), past which the step shrinks as 1.5 / (D - 2). The last
        # warm bracket must hold it with room to spare, since the fine mesh
        # has no fallback.
        sol = radial_ground_state(152, 1.0, 1, convention, 16)
        widest = oracle._WARM * oracle._WARM_GROWTH**oracle._WARM_TRIES
        assert 15 * sol.shift / abs(sol.energy) <= widest / 4

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
            (dict(D=5, alpha=1.0, beta=3), InvalidParameterError),
            (dict(D=4, alpha=1.0, beta=2), InvalidParameterError),
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
        below = math.floor(math.log(0.2 / sol.grid[0]) / sol.h) + 1  # r_min e^(j h) <= 0.2
        assert below > 500 and inner[:below].all() and not inner[below:].any()
        assert float(np.abs(sol.u[inner] / exact[inner] - 1.0).max()) <= 1e-10

    def test_wavefunction_is_built_on_first_read(self):
        sol = radial_ground_state(3, 1.0, 1, KineticConvention.FULL_LAPLACIAN, 1)
        assert "_built" not in vars(sol)
        effort = (sol.sweeps, sol.matches, sol.steps)
        unread = radial_ground_state(3, 1.0, 1, KineticConvention.FULL_LAPLACIAN, 1)
        u = sol.u
        assert "_built" in vars(sol) and "_built" not in vars(unread)
        assert sol.u is u and sol.grid is sol.grid
        assert (sol.sweeps, sol.matches, sol.steps) == effort
        # the built arrays are no part of the value
        assert sol == unread and repr(sol) == repr(unread)
        assert "u=" not in repr(sol) and "grid=" not in repr(sol)


def test_nodes_are_the_sign_changes_of_the_built_wavefunction():
    # nodes come from the sign data of the last match, not from u; the two
    # must agree across the whole D window, both conventions, excitations up
    # to the limit and alpha over 200 decades
    for D, convention, alpha, k in itertools.product(
        (3, 4, 5, 7, 25, 64, 100, 690, RADIAL_D_LIMIT),
        KineticConvention,
        (1e-100, 1.0, 1e100),
        (0, 1, 2, 4, 8, RADIAL_EXCITATION_LIMIT),
    ):
        sol = radial_ground_state(D, alpha, 1, convention, k)
        signs = np.sign(sol.u[sol.u != 0.0])
        assert int(np.count_nonzero(np.diff(signs))) == sol.nodes == k, (D, convention, alpha, k)


@settings(max_examples=60, deadline=None)
@given(
    D=st.integers(3, RADIAL_D_LIMIT),
    k=st.integers(0, RADIAL_EXCITATION_LIMIT),
    convention=st.sampled_from(KineticConvention),
    log_alpha=st.floats(-100.0, 100.0),
    log_scaled=st.floats(-100.0, 100.0),
)
def test_levels_scale_as_alpha_squared(D, k, convention, log_alpha, log_scaled):
    # every length and energy of the solve is scaled by the closed-form
    # estimate, so E(lambda alpha) = lambda^2 E(alpha) up to rounding
    alpha, scaled = 10.0**log_alpha, 10.0**log_scaled
    lam = scaled / alpha
    energy = radial_ground_state(D, alpha, 1, convention, k).energy
    expected = lam * (lam * energy)  # lam^2 alone may overflow
    got = radial_ground_state(D, scaled, 1, convention, k).energy
    assert abs(got - expected) <= 1e-12 * abs(expected)


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
    # the extrapolation over (h, 2h) leaves the h^6 term and Brent's
    # tolerance: within 3.6e-12 up to D = 5, 9.3e-12 at D = 25 and 5.6e-11 at
    # D = 64 (k = 1), the same at any alpha and in both conventions
    worst = {}
    for D, k, convention, alpha in itertools.product(
        (3, 4, 5, 25, 64), (0, 1), KineticConvention, (1e-6, 1.0, 1e6)
    ):
        exact = exact_level(D, alpha, convention, k)
        sol = radial_ground_state(D, alpha, 1, convention, k)
        assert sol.nodes == k
        worst[D] = max(worst.get(D, 0.0), abs(sol.energy - exact) / abs(exact))
    assert max(worst[D] for D in (3, 4, 5)) <= 6e-12
    assert max(worst[D] for D in (25, 64)) <= 1e-10


def test_shift_bounds_the_error():
    # the shift |E - E_h| estimates the fine solve's error, so it exceeds
    # that of the extrapolated level, whose leading term it removed
    for D, alpha, convention, k in EXACT_LEVEL_CASES:
        sol = radial_ground_state(D, alpha, 1, convention, k)
        exact = exact_level(D, alpha, convention, k)
        assert abs(sol.energy - exact) <= sol.shift, (D, alpha, convention, k)


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
            series = _series(z, _series_terms(energy * c0 / alpha**2, D))
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
    # the step error grows steeply with k: the limit keeps it within 1e-4 at
    # both ends of the D range, and anything above is rejected
    k = RADIAL_EXCITATION_LIMIT
    sol = radial_ground_state(D, 1.0, 1, convention, k)
    exact = exact_level(D, 1.0, convention, k)
    assert abs(sol.energy - exact) <= 1e-4 * abs(exact)
    assert sol.nodes == k
    with pytest.raises(InvalidParameterError) as err:
        radial_ground_state(D, 1.0, 1, convention, k + 1)
    assert err.value.code == "out-of-range"


class TestBrentZero:
    def test_root_at_zero_converges_with_a_floor(self):
        # f changes sign at 0 but is never 0, so every step bisects: with a
        # floor of 1 the tolerance stays at 0.5e-12, which ~42 halvings of
        # [-1, 2] reach, while a purely relative one shrinks with |x| and
        # the search never stops
        calls = 0

        def f(x):
            nonlocal calls
            calls += 1
            return math.copysign(1.0, x)

        x = _brent_zero(f, -1.0, 2.0, -1.0, 1.0, 1e-12, 1.0)
        assert abs(x) <= 1e-12
        assert calls < _MAX_POLISH
        with pytest.raises(NoConvergenceError, match="unresolved"):
            _brent_zero(f, -1.0, 2.0, -1.0, 1.0, 1e-12, 0.0)

    def test_no_sign_change_raises(self):
        with pytest.raises(NoConvergenceError, match="no sign change"):
            _brent_zero(math.exp, 1.0, 2.0, math.e, math.exp(2.0), 1e-12, 1.0)


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
        assert worst_e <= 1e-15
        assert most_evaluations <= 11

    @given(
        D=st.integers(min_value=2, max_value=10_000),
        n=st.integers(min_value=1, max_value=N_LIMIT),
        ln_alpha=st.floats(min_value=-230.0, max_value=230.0),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_depth_is_one_rounding_from_the_potential(self, D, n, ln_alpha, data):
        # the float depth against the potential itself at 80 digits, at the
        # root found and from the same float inputs: ln A as the search
        # forms it, so only the evaluation of the depth is compared
        beta = data.draw(st.integers(min_value=1, max_value=2 * n - 1))
        found = minimize_v_eff(EnergyQuery(SignedLogReal(1, ln_alpha), beta, n, D))
        ln_amp = 2 * n * (math.log(D) - math.log(2))
        with mpmath.workdps(80):
            x = mpmath.mpf(found.ln_r_star)
            v = mpmath.exp(ln_amp - 2 * n * x) - mpmath.exp(ln_alpha - beta * x)
            ln_e = float(mpmath.log(-v))
        assert abs(found.e_min.lnmag - ln_e) <= 4.5e-16 * max(1.0, abs(ln_e))

    @pytest.mark.parametrize("beta", [1, 2 * N_LIMIT - 1])
    def test_slope_inside_the_seed_reads_minus_inf(self, beta, monkeypatch):
        # e^(2 N_LIMIT) overflows a float: the search's slope reads -inf one
        # unit of ln r inside the minimizer, it does not raise; the slope is
        # the function the search hands its zero finder
        handed = []

        def recording(f, *rest):
            handed.append(f)
            return _brent_zero(f, *rest)

        monkeypatch.setattr(oracle, "_brent_zero", recording)
        found = minimize_v_eff(EnergyQuery(SignedLogReal(1, 0.0), beta, N_LIMIT, 64))
        (slope,) = handed
        assert slope(found.ln_r_star - 1.0) == -math.inf

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


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# the weights the search gives its exponents: 1, beta, 2n and beta - 2n
WEIGHT = st.integers(min_value=-2 * N_LIMIT, max_value=2 * N_LIMIT)
MAX = sys.float_info.max
TINY = 5e-324  # the smallest subnormal
# the largest v whose 134217729 v is finite: Dekker's split of any larger v
# first scales it down
SPLIT_EDGE = float.fromhex("0x1.ffffffbffffffp+996")


class TestExactSum:
    @given(
        st.lists(
            st.tuples(WEIGHT, st.one_of(FINITE, st.floats(min_value=-1e-300, max_value=1e-300))),
            min_size=1,
            max_size=4,
        )
    )
    @example([(1, 1.0), (-1, 1.0), (3, TINY)])  # cancels onto a subnormal
    @example([(1, 2.0**-1022), (-1, TINY)])  # subnormal result
    @example([(1, 1.0), (1, 2.0**-53), (1, TINY)])  # a tie, broken by a subnormal
    @example([(1, 1.0), (1, 2.0**-53), (-1, TINY)])
    @example([(1, MAX), (1, 2.0**970)])  # the exact midpoint above MAX overflows
    @example([(1, MAX), (1, 2.0**970), (-1, TINY)])  # just below it, still finite
    @example([(2, MAX), (-2, MAX)])  # cancelling terms past the float range
    @example([(2 * N_LIMIT, -MAX), (2 * N_LIMIT, 1.0), (-2 * N_LIMIT, -MAX)])
    @example([(-1, 0.0), (1, -0.0)])
    @example([(2 * N_LIMIT, SPLIT_EDGE), (-3, SPLIT_EDGE), (1, TINY)])  # split in place
    @example([(-2 * N_LIMIT, math.nextafter(SPLIT_EDGE, math.inf)), (3, 1.0)])  # scaled first
    @example([(2 * N_LIMIT, float.fromhex("0x0.fffffffffffffp-1022")), (-1, TINY)])  # subnormal v
    @example([(-2 * N_LIMIT, float.fromhex("-0x0.8000000000001p-1022")), (1, 2.0**-1022)])
    @example([(1, MAX), (-1, MAX), (-1, -MAX)])  # k = +-1 passes v through
    @example([(-1, -MAX), (1, -MAX), (1, 1.0)])
    @settings(max_examples=500, deadline=None)
    def test_is_the_exact_sum_rounded_once(self, terms):
        exact = sum(Fraction(k) * Fraction(v) for k, v in terms)
        try:
            want = float(exact)
        except OverflowError:
            with pytest.raises(OverflowError):
                _exact_sum(*terms)
            return
        if sum(abs(Fraction(k) * Fraction(v)) for k, v in terms) < 2**1023:
            # no term k v or partial sum can leave the float range
            assert _exact_sum(*terms).hex() == want.hex()
            return
        # past half the float range, a term k v or a partial sum of the
        # parts may overflow though the total would not: OverflowError then
        try:
            got = _exact_sum(*terms)
        except OverflowError:
            return
        assert got.hex() == want.hex()

    def test_unit_weights_take_v_whole(self):
        # past 2^1023 the property allows OverflowError; a k = +-1 term is
        # never split, so its v reaches the sum whole, MAX too
        assert _exact_sum((-1, MAX)) == -MAX
        assert _exact_sum((1, -MAX), (-1, -MAX), (-1, MAX)) == -MAX

    @given(
        WEIGHT,
        st.sampled_from([math.inf, -math.inf, math.nan]),
        st.lists(st.tuples(WEIGHT, FINITE), max_size=3),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_non_finite_term_raises(self, k, v, terms, data):
        at = data.draw(st.integers(min_value=0, max_value=len(terms)))
        terms.insert(at, (k, v))
        with pytest.raises((ValueError, OverflowError)):
            _exact_sum(*terms)


def _digest(rows) -> str:
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def _veff_row(q: EnergyQuery) -> str:
    try:
        found = minimize_v_eff(q)
    except DimspecError as err:
        return f"{type(err).__name__}: {err}"
    return f"{found.e_min.lnmag.hex()} {found.ln_r_star.hex()} {found.evaluations}"


def _veff_pin_rows():
    """One row per query: the bound points of oracle_equivalence_report(16,
    64), then 2 000 seeded queries across the whole window, |ln alpha| up to
    7e5, and 200 near the float range's edge, where the search gives up."""
    for p in oracle_equivalence_report(16, 64).points:
        spec = alpha_coefficient(p.D, scheme_m(p.n, p.scheme))
        yield _veff_row(EnergyQuery(spec.alpha, spec.beta, p.n, p.D))
    rng = random.Random(20376)
    for i in range(2200):
        n = rng.randint(1, N_LIMIT) if rng.random() < 0.3 else rng.randint(1, 40)
        beta = rng.randint(1, 2 * n - 1)
        if i < 2000:
            bound = 7e5 if rng.random() < 0.5 else 300.0
            ln_alpha = rng.uniform(-bound, bound)
        else:
            ln_alpha = rng.choice((1, -1)) * rng.uniform(1, 10) * 10.0 ** rng.randint(290, 307)
        yield _veff_row(EnergyQuery(SignedLogReal(1, ln_alpha), beta, n, rng.randint(2, 10_000)))


def _radial_pin_rows():
    """One row per solve: the level's bits and the solver's counters, over
    ten dimensions, both conventions, three excitations and four couplings."""
    for D, convention, k, alpha in itertools.product(
        (3, 4, 5, 7, 12, 25, 60, 150, 400, 1200),
        KineticConvention,
        (0, 1, 4),
        (1e-6, 1.0, 1.7, 1e50),
    ):
        sol = radial_ground_state(D, alpha, 1, convention, k)
        yield f"{sol.energy.hex()} {sol.sweeps} {sol.matches} {sol.steps}"


class TestBitPins:
    """The searches' outputs, bit for bit, against digests taken at commit
    1f14d7d, before the exact sum moved from integer ratios to math.fsum.
    They pin this platform's libm as much as the code: a digest that moves
    with no change to the solvers means the platform did."""

    def test_veff_search(self):
        assert (
            _digest(_veff_pin_rows())
            == "24ff09ed56c83d52f22c268bcaab835694dfbac29518a0e260d13bfec06f75a7"
        )

    def test_radial_solver(self):
        assert (
            _digest(_radial_pin_rows())
            == "b44f97bb6eb00b913bceaf32a2da2bcfa3a20a5eabe87786df12f69242a484df"
        )
