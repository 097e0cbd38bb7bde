import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimspec import SignedLogReal


# magnitudes across the full representable float range, built as m * 10^e
magnitudes = st.tuples(
    st.floats(min_value=1.0, max_value=9.999, allow_nan=False),
    st.integers(min_value=-300, max_value=299),
).map(lambda t: t[0] * 10.0 ** t[1])

signed = st.tuples(st.sampled_from([-1.0, 1.0]), magnitudes).map(lambda t: t[0] * t[1])


def _grid(mantissas: int, exponents: range) -> list:
    """sign * m * 10^e for evenly spaced m in [1, 9.999], both ends included,
    every e in ``exponents`` and both signs."""
    ms = [1.0 + (9.999 - 1.0) * i / (mantissas - 1) for i in range(mantissas)]
    return [sign * m * 10.0**e for sign in (-1.0, 1.0) for m in ms for e in exponents]


class TestRoundTrip:
    def test_full_range(self):
        # representation-limited: lnmag is a double, so half an ulp of
        # ln|x| ~ 690 caps the achievable round trip near 1e-13
        xs = _grid(20, range(-300, 300))
        assert len(xs) >= 20_000
        for x in xs:
            y = SignedLogReal.from_float(x).to_float()
            assert abs(y - x) <= 1e-13 * abs(x), x

    def test_moderate_range(self):
        xs = _grid(200, range(-27, 27))
        assert len(xs) >= 20_000
        for x in xs:
            y = SignedLogReal.from_float(x).to_float()
            assert abs(y - x) <= 1e-14 * abs(x), x

    def test_zero(self):
        z = SignedLogReal.from_float(0.0)
        assert z.sign == 0 and z.to_float() == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            SignedLogReal.from_float(math.inf)
        with pytest.raises(ValueError):
            SignedLogReal.from_float(math.nan)


class TestArithmetic:
    @given(a=signed, b=signed)
    @settings(max_examples=300)
    def test_mul_matches_log_identity(self, a, b):
        p = SignedLogReal.from_float(a) * SignedLogReal.from_float(b)
        # the float product a * b may under/overflow; the log route must not
        assert p.sign == (1 if (a > 0) == (b > 0) else -1)
        assert p.lnmag == pytest.approx(math.log(abs(a)) + math.log(abs(b)), abs=1e-9)

    @given(
        a=st.floats(min_value=-1e6, max_value=1e6),
        b=st.floats(min_value=-1e6, max_value=1e6),
    )
    @settings(max_examples=300)
    def test_add_matches_floats(self, a, b):
        if abs(a) < 1e-30 or abs(b) < 1e-30:
            return
        s = SignedLogReal.from_float(a) + SignedLogReal.from_float(b)
        expected = a + b
        if expected == 0.0 or abs(expected) < 1e-9 * max(abs(a), abs(b)):
            return  # catastrophic cancellation: float reference itself unusable
        assert s.to_float() == pytest.approx(expected, rel=1e-9)


class TestDecimalRendering:
    def test_reference_style(self):
        assert SignedLogReal.from_float(-4.41e-97).to_decimal() == "-4.41e-97"

    def test_one_ninth(self):
        assert SignedLogReal.from_float(-1.0 / 9.0).to_decimal() == "-1.11e-01"

    def test_zero(self):
        assert SignedLogReal(0).to_decimal() == "0"

    def test_mantissa_carry(self):
        # 9.999 rounds up at 3 significant digits and must carry the exponent
        assert SignedLogReal.from_float(9.9999e5).to_decimal() == "1.00e+06"

    def test_six_digits(self):
        assert SignedLogReal.from_float(0.15915494309).to_decimal(6) == "1.59155e-01"
