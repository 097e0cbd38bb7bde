import math
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimspec import InvalidParameterError, alpha_coefficient, log_gamma_half, potential
from dimspec.potential import D_LIMIT, LN_SQRT_PI


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


def log_gamma_from_scratch(twice: int) -> float:
    """The lattice sum with every log taken afresh, one fsum of the same terms."""
    if twice % 2 == 0:
        return math.fsum(math.log(j) for j in range(1, twice // 2))
    return LN_SQRT_PI + math.fsum(math.log(j - 0.5) for j in range(1, (twice - 1) // 2 + 1))


def alpha_m1_reference(D: int) -> float:
    """ln alpha(D, 1) in its reduced closed form 2 Gamma(D/2) / (pi^(D/2-1) (D-2)),
    through math.lgamma: no step shared with the lattice sums of
    ``alpha_coefficient``."""
    return math.log(2) + math.lgamma(D / 2) - (D / 2 - 1) * math.log(math.pi) - math.log(D - 2)


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

    def test_kept_logs_give_the_sum_from_scratch(self, monkeypatch):
        # from empty tables: grown one log at a time up to twice = 2 000, then
        # in jumps, and read below their length, at 50 seeded twice up to D_LIMIT
        monkeypatch.setattr(potential, "_LN_INT", [])
        monkeypatch.setattr(potential, "_LN_HALF", [])
        potential._log_gamma_twice.cache_clear()
        rng = random.Random(50)
        for twice in [*range(1, 2001), *rng.sample(range(2001, D_LIMIT + 1), 50)]:
            assert log_gamma_half(twice).hex() == log_gamma_from_scratch(twice).hex(), twice

    def test_threads_grow_the_kept_logs_alike(self):
        # growing is check-then-act: two threads that both saw the same
        # length would each append the log at that index
        logs: list[float] = []
        want = [math.log(1 + j) for j in range(4000)]
        wrong = []

        def grow(seed):
            rng = random.Random(seed)
            for count in sorted(rng.sample(range(1, 4001), 200)):
                if potential._log_prefix(logs, 1, count) != want[:count]:
                    wrong.append(count)

        threads = [threading.Thread(target=grow, args=(seed,)) for seed in range(4)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert wrong == [] and logs == want[: len(logs)]

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
        assert spec.alpha.sign == 1
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

    def test_logarithmic_degeneration(self):
        spec = alpha_coefficient(6, 3)
        assert spec.alpha is None
        assert spec.beta == 0

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

    @given(D=st.integers(min_value=3, max_value=80))
    @example(D=1_000)
    @example(D=10_001)
    @example(D=40_000)
    @settings(max_examples=100)
    def test_m1_closed_form_agreement(self, D):
        general = alpha_coefficient(D, 1).alpha
        closed = alpha_m1_reference(D)
        assert general.sign == 1
        assert abs(general.lnmag - closed) <= 1e-12 * max(1.0, abs(closed))
