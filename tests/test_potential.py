import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimspec import (
    InvalidParameterError,
    PotentialNature,
    alpha_coefficient,
    alpha_m1_closed_form,
    log_gamma_half,
)
from dimspec.potential import D_LIMIT


def naive_gamma_product(twice: int) -> float:
    """Plain-float product recurrence, the independent check for the log route."""
    if twice % 2 == 0:
        value = 1.0
        for j in range(1, twice // 2):
            value *= j
        return value
    value = math.sqrt(math.pi)
    for j in range(1, (twice - 1) // 2 + 1):
        value *= j - 0.5
    return value


class TestLogGammaHalf:
    def test_half(self):
        assert log_gamma_half(1) == pytest.approx(
            math.log(math.sqrt(math.pi)), abs=1e-15
        )

    def test_three(self):
        assert log_gamma_half(6) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_seven_halves(self):
        # 2.5 * 1.5 * 0.5 * sqrt(pi) = 3.3233509704478426
        expected = math.log(1.875 * math.sqrt(math.pi))
        assert log_gamma_half(7) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("twice", [0, -1, -2, -7])
    def test_pole(self, twice):
        with pytest.raises(InvalidParameterError) as info:
            log_gamma_half(twice)
        assert info.value.code == "gamma-pole"

    def test_product_oracle_on_lattice(self):
        # every lattice point in (0, 50]
        for twice in range(1, 101):
            expected = math.log(naive_gamma_product(twice))
            got = log_gamma_half(twice)
            assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected)), twice

    @given(twice=st.integers(min_value=1, max_value=400))
    @settings(max_examples=200)
    def test_recurrence_step(self, twice):
        # ln Gamma(x + 1) - ln Gamma(x) == ln x on the lattice
        step = log_gamma_half(twice + 2) - log_gamma_half(twice)
        assert step == pytest.approx(math.log(twice / 2.0), rel=1e-12, abs=1e-12)


class TestAlphaCoefficient:
    def test_normalization_anchor(self):
        spec = alpha_coefficient(3, 1)
        assert spec.beta == 1
        assert spec.nature is PotentialNature.ATTRACTIVE
        assert abs(spec.alpha.to_float() - 1.0) <= 1e-14

    def test_five_dimensional_m1(self):
        spec = alpha_coefficient(5, 1)
        assert spec.beta == 3
        assert spec.alpha.to_float() == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)

    def test_seven_three(self):
        spec = alpha_coefficient(7, 3)
        assert spec.beta == 1
        assert spec.alpha.to_float() == pytest.approx(
            1.0 / (32.0 * math.pi**2), rel=1e-12
        )

    def test_even_m_repulsive(self):
        spec = alpha_coefficient(7, 2)
        assert spec.alpha.sign == -1
        assert spec.nature is PotentialNature.REPULSIVE

    def test_logarithmic_degeneration(self):
        spec = alpha_coefficient(6, 3)
        assert spec.alpha is None
        assert spec.beta == 0
        assert spec.nature is PotentialNature.LOGARITHMIC

    def test_short_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            alpha_coefficient(3, 2)

    @given(
        m=st.integers(min_value=1, max_value=20),
        extra=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=300)
    def test_sign_law(self, m, extra):
        # sign(alpha) = (-1)^(m+1) wherever D > 2m
        D = 2 * m + extra
        spec = alpha_coefficient(D, m)
        assert spec.alpha.sign == (1 if m % 2 == 1 else -1)

    @pytest.mark.parametrize("D", [2, D_LIMIT + 1, 10**6])
    def test_m1_closed_form_domain(self, D):
        start = time.process_time()
        with pytest.raises(InvalidParameterError):
            alpha_m1_closed_form(D)
        assert time.process_time() - start < 0.05

    @given(D=st.integers(min_value=3, max_value=80))
    @settings(max_examples=100)
    def test_m1_closed_form_agreement(self, D):
        general = alpha_coefficient(D, 1).alpha
        closed = alpha_m1_closed_form(D)
        assert general.sign == closed.sign == 1
        assert abs(general.lnmag - closed.lnmag) <= 1e-12 * max(1.0, abs(closed.lnmag))
