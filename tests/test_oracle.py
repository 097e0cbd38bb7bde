import math

import numpy as np
import pytest

from dimspec import (
    EffectivePotential,
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

# Frozen from the development run of this module's own search (the value the
# closed forms are then required to reproduce).
ORACLE_R_STAR_7_3 = 20.342383994195174


def query(D, n, m):
    spec = alpha_coefficient(D, m)
    return EnergyQuery(spec.alpha, D - 2 * m, n, D)


class TestEffectivePotential:
    def test_values_against_float_arithmetic(self):
        pot = EffectivePotential.from_query(EnergyQuery(SignedLogReal.one(), 1, 1, 3))
        # V(r) = 2.25 r^-2 - r^-1
        for r in (0.5, 2.0, 4.5, 10.0):
            expected = 2.25 / r**2 - 1.0 / r
            got = pot.value_at_ln_r(math.log(r)).to_float()
            assert got == pytest.approx(expected, rel=1e-12)


class TestMinimizeVeff:
    def test_analytic_three_dim_case(self):
        found = minimize_v_eff(EnergyQuery(SignedLogReal.one(), 1, 1, 3))
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

    def test_no_minimum_at_divergent_boundary(self):
        with pytest.raises(NoMinimumError):
            minimize_v_eff(EnergyQuery(SignedLogReal.one(), 2, 1, 4))

    def test_no_minimum_for_repulsive(self):
        with pytest.raises(NoMinimumError):
            minimize_v_eff(EnergyQuery(SignedLogReal.from_float(-1.0), 1, 1, 3))

    def test_first_order_condition_at_r_star(self):
        # 2n A r*^-2n == alpha beta r*^-beta at the minimizer, to 1e-9
        for n, scheme in [(1, Scheme.M_EQUALS_N), (3, Scheme.M_EQUALS_N), (3, Scheme.M_EQUALS_ONE)]:
            m = n if scheme is Scheme.M_EQUALS_N else 1
            for D in bound_dims(n, scheme).members:
                q = query(D, n, m)
                found = minimize_v_eff(q)
                pot = EffectivePotential.from_query(q)
                x = found.ln_r_star
                lhs = math.log(2 * n) + pot.A.lnmag - 2 * n * x
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
        sol = radial_ground_state(3, 1.0, 1, KineticConvention.FULL_LAPLACIAN, 0)
        assert sol.sweeps < 40

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
        ],
    )
    def test_rejections(self, kwargs, error):
        with pytest.raises(error):
            radial_ground_state(**kwargs)


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
]


@pytest.mark.parametrize("D,alpha,convention,k", EXACT_LEVEL_CASES)
def test_radial_matches_exact_level(D, alpha, convention, k):
    sol = radial_ground_state(D, alpha, 1, convention, k)
    exact = exact_level(D, alpha, convention, k)
    assert abs(sol.energy - exact) <= 1e-6 * abs(exact)
    assert sol.nodes == k
