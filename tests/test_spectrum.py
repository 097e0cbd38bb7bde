import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimspec import (
    Classification,
    EnergyQuery,
    InvalidParameterError,
    Scheme,
    SignedLogReal,
    alpha_coefficient,
    bound_dims,
    e0_general,
    e0_scheme_m1,
    e0_scheme_mn,
    evaluate_point,
    scheme_m1_discrepancies,
)
from dimspec.potential import N_LIMIT

# Frozen values computed with the effective-potential minimization oracle
# (60-digit golden-section search) before the closed forms were trusted.
ORACLE_E0_MN_7_3 = -1.297081252344275e-04
ORACLE_E0_M1_5_3 = -2.593822301244e-05
ORACLE_E0_MN_11_5 = -3.995406464899e-08


def query(D, n, m):
    spec = alpha_coefficient(D, m)
    return EnergyQuery(spec.alpha, D - 2 * m, n, D)


class TestE0General:
    def test_three_dim_anchor(self):
        out = e0_general(EnergyQuery(SignedLogReal(1, 0.0), 1, 1, 3))
        assert out.is_bound
        assert out.energy.to_float() == pytest.approx(-1.0 / 9.0, rel=1e-12)

    def test_oracle_frozen_7_3(self):
        out = e0_general(query(7, 3, 3))
        assert out.energy.to_float() == pytest.approx(ORACLE_E0_MN_7_3, rel=1e-9)

    def test_oracle_frozen_m1_5_3(self):
        out = e0_general(query(5, 3, 1))
        assert out.energy.to_float() == pytest.approx(ORACLE_E0_M1_5_3, rel=1e-9)

    def test_divergent_boundary(self):
        out = e0_general(EnergyQuery(SignedLogReal(1, 0.0), 2, 1, 4))
        assert out.classification is Classification.DIVERGENT

    def test_singular(self):
        out = e0_general(EnergyQuery(SignedLogReal(1, 0.0), 3, 1, 5))
        assert out.classification is Classification.SINGULAR

    def test_repulsive(self):
        out = e0_general(EnergyQuery(SignedLogReal.from_float(-1.0), 1, 1, 3))
        assert out.classification is Classification.REPULSIVE

    def test_logarithmic(self):
        out = e0_general(EnergyQuery(SignedLogReal(1, 0.0), 0, 1, 2))
        assert out.classification is Classification.LOGARITHMIC

    def test_malformed(self):
        # the query itself is rejected: no malformed query reaches e0_general
        with pytest.raises(InvalidParameterError) as err:
            EnergyQuery(SignedLogReal(1, 0.0), -1, 1, 3)
        assert err.value.code == "malformed-query"

    def test_n_above_limit_is_rejected(self):
        assert e0_general(EnergyQuery(SignedLogReal(1, 0.0), 1, N_LIMIT, 3)).is_bound
        # n past ~1e308 once overflowed the float 2n ln 2
        for n in (N_LIMIT + 1, 10**400):
            with pytest.raises(InvalidParameterError, match="n <= "):
                EnergyQuery(SignedLogReal(1, 0.0), 1, n, 3)

    @pytest.mark.parametrize(
        "ln_alpha,beta,n,D",
        [(1.7e308, 1, 1, 3), (-1.7e308, 1, 1, 3), (1e305, 2 * N_LIMIT - 1, N_LIMIT, 3)],
    )
    def test_energy_past_the_float_range_is_out_of_range(self, ln_alpha, beta, n, D):
        with pytest.raises(InvalidParameterError) as err:
            e0_general(EnergyQuery(SignedLogReal(1, ln_alpha), beta, n, D))
        assert err.value.code == "out-of-range"
        assert str(err.value) == (
            f"ln|E0| leaves the float range at ln alpha = {ln_alpha!r}, beta = {beta}, n = {n}"
        )

    @given(
        D=st.integers(min_value=2, max_value=64),
        n=st.integers(min_value=1, max_value=12),
        m=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=400)
    def test_no_positive_energy_ever(self, D, n, m):
        if D - 2 * m < 0 or D == 2 * m:
            return
        out = e0_general(query(D, n, m))
        if out.is_bound:
            assert out.energy.sign == -1


class TestSchemeMN:
    def test_anchor(self):
        out = e0_scheme_mn(3, 1)
        assert out.energy.to_float() == pytest.approx(-1.0 / 9.0, rel=1e-12)

    def test_oracle_frozen(self):
        out = e0_scheme_mn(7, 3)
        assert out.energy.to_float() == pytest.approx(ORACLE_E0_MN_7_3, rel=1e-9)
        out = e0_scheme_mn(11, 5)
        assert out.energy.to_float() == pytest.approx(ORACLE_E0_MN_11_5, rel=1e-9)

    @pytest.mark.parametrize(
        "D,n,expected",
        [
            (12, 3, Classification.DIVERGENT),
            (13, 3, Classification.SINGULAR),
            (9, 2, Classification.REPULSIVE),
            (3, 3, Classification.INVALID),
            (6, 3, Classification.LOGARITHMIC),
        ],
    )
    def test_window_boundaries(self, D, n, expected):
        assert e0_scheme_mn(D, n).classification is expected

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
    def test_rewriting_of_general_form(self, n):
        for D in range(2 * n + 1, 4 * n):
            printed = e0_scheme_mn(D, n)
            general = e0_general(query(D, n, n))
            assert printed.is_bound and general.is_bound
            gap = abs(printed.energy.lnmag - general.energy.lnmag)
            assert gap <= 1e-10 * max(1.0, abs(general.energy.lnmag)), (D, n)


def m1_general(D, n):
    """The general route under the m = 1 scheme: the outcome of the record
    ``evaluate_point`` makes."""
    return evaluate_point(D, n, Scheme.M_EQUALS_ONE).outcome


class TestSchemeM1:
    def test_anchor_n1(self):
        printed = e0_scheme_m1(3, 1)
        rederived = m1_general(3, 1)
        mn = e0_scheme_mn(3, 1)
        for out in (printed, rederived, mn):
            assert out.energy.to_float() == pytest.approx(-1.0 / 9.0, rel=1e-12)

    def test_logarithmic_floor(self):
        assert e0_scheme_m1(2, 1).classification is Classification.LOGARITHMIC
        assert m1_general(2, 3).classification is Classification.LOGARITHMIC

    def test_printed_form_undefined_below_2n(self):
        out = e0_scheme_m1(5, 3)
        assert out.classification is Classification.INVALID
        assert out.reason_code == "printed-form-undefined"
        # the full text at two points: 2 + n is 2n at n = 2 only
        for D, n in [(3, 2), (5, 3)]:
            assert e0_scheme_m1(D, n).reason == (
                "printed-form undefined: bracket base n(D/2)^(2n)/(D/2-n) is not positive "
                f"for D={D} <= 2n={2 * n}"
            )
        # the pole at D == 2n is equally unevaluable as printed
        assert e0_scheme_m1(6, 3).reason_code == "printed-form-undefined"

    def test_rederived_covers_whole_window(self):
        for D in range(3, 8):
            assert m1_general(D, 3).is_bound, D

    def test_window_upper_boundary(self):
        # D = 2(n+1) is the divergent edge of the m = 1 window
        assert m1_general(8, 3).classification is Classification.DIVERGENT
        assert e0_scheme_m1(8, 3).classification is Classification.DIVERGENT

    def test_discrepancy_report_empty_for_n1(self):
        assert scheme_m1_discrepancies(1) == []

    def test_discrepancy_report_n3(self):
        entries = scheme_m1_discrepancies(3)
        assert len(entries) == 5
        by_D = {e.D: e for e in entries}
        # D in {3,4,5,6}: printed form undefined while the general route is bound
        for D in (3, 4, 5):
            assert by_D[D].printed.classification is Classification.INVALID
            assert by_D[D].rederived.is_bound
        # D = 7: both bound but numerically different
        assert by_D[7].printed.is_bound and by_D[7].rederived.is_bound
        assert by_D[7].lnmag_gap is not None and abs(by_D[7].lnmag_gap) > 1e-3

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_discrepancy_report_nonempty_above_n1(self, n):
        assert scheme_m1_discrepancies(n)


def hydrogen_k_star(energy: SignedLogReal) -> float:
    """k* of the ordinary 3-D hydrogen level E = -1/(2 k*^2) with this
    energy, read from its ln|E| alone."""
    return math.exp(-(math.log(2.0) + energy.lnmag) / 2)


class TestEffectiveQuantumNumber:
    """A level's SignedLogReal carries ln|E| closely enough to give back
    its principal quantum number."""

    def test_ground_level(self):
        k = hydrogen_k_star(SignedLogReal.from_float(-0.5))
        assert k == pytest.approx(1.0, abs=1e-12)
        assert round(k) == 1

    def test_second_level(self):
        k = hydrogen_k_star(SignedLogReal.from_float(-0.125))
        assert k == pytest.approx(2.0, abs=1e-12)
        assert round(k) == 2

    def test_reference_row(self):
        k = hydrogen_k_star(SignedLogReal.from_float(-0.00041))
        assert k == pytest.approx(34.9215147884, rel=1e-9)
        assert round(k) == 35

    @pytest.mark.parametrize("k", list(range(1, 101)))
    def test_inverts_hydrogen_levels(self, k):
        got = hydrogen_k_star(SignedLogReal.from_float(-1.0 / (2.0 * k * k)))
        assert abs(got - k) <= 1e-12 * k
        assert round(got) == k


class TestMonotonicity:
    @pytest.mark.parametrize("n", [3, 5])
    def test_magnitude_decreases_with_dimension(self, n):
        window = bound_dims(n, Scheme.M_EQUALS_N)
        lnmags = [
            e0_general(query(D, n, n)).energy.lnmag for D in window.members
        ]
        assert all(a > b for a, b in zip(lnmags, lnmags[1:]))


# a power n across the query's whole domain, and a decay exponent below 2n
_bound_powers = st.integers(1, N_LIMIT).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, 2 * n - 1))
)


class TestCouplingScaling:
    @given(
        n_beta=_bound_powers,
        D=st.integers(2, 10**6),
        ln_alpha=st.floats(-230, 230),
        ln_lam=st.floats(-50, 50),
    )
    @settings(max_examples=300)
    def test_energy_scales_as_a_power_of_the_coupling(self, n_beta, D, ln_alpha, ln_lam):
        # ln|E(lam alpha)| - ln|E(alpha)| = (2n / (2n - beta)) ln lam, no reference needed
        n, beta = n_beta

        def ln_e(ln_a):
            return e0_general(EnergyQuery(SignedLogReal(1, ln_a), beta, n, D)).energy.lnmag

        before, after = ln_e(ln_alpha), ln_e(ln_alpha + ln_lam)
        two_n = 2 * n
        # the closed form subtracts terms as large as x_dim ln D, with
        # x_dim = 2n beta / (2n - beta), which cancel far below that at small D,
        # so its floats are good to a few ulps of that term, not of ln|E|
        scale = max(1.0, abs(before), abs(after), two_n * beta / (two_n - beta) * math.log(D))
        assert abs((after - before) - two_n / (two_n - beta) * ln_lam) <= 1e-13 * scale
