import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimspec import (
    Classification,
    EnergyOutcome,
    InvalidParameterError,
    PotentialNature,
    PotentialSpec,
    Scheme,
    SignedLogReal,
    SystemParams,
    classify_coupling,
    classify_outcome,
    classify_regime,
)
from dimspec.model import scheme_m


class TestSchemeM:
    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    def test_the_two_schemes(self, n):
        assert scheme_m(n, Scheme.M_EQUALS_N) == n
        assert scheme_m(n, Scheme.M_EQUALS_ONE) == 1

    @pytest.mark.parametrize("scheme", [Scheme.EXPLICIT, "mn", None])
    def test_no_other_scheme_fixes_m(self, scheme):
        with pytest.raises(InvalidParameterError) as err:
            scheme_m(3, scheme)
        assert err.value.code == "bad-scheme"


class TestSystemParams:
    def test_beta_property(self):
        assert SystemParams(7, 3, 3).beta == 1
        assert SystemParams(7, 3, 1).beta == 5

    @pytest.mark.parametrize(
        "params,scheme",
        [
            ((9, 3, 3), Scheme.M_EQUALS_N),
            ((9, 3, 1), Scheme.M_EQUALS_ONE),
            ((9, 3, 2), Scheme.EXPLICIT),
            ((3, 1, 1), Scheme.M_EQUALS_N),  # satisfies both rules; reads mn
        ],
    )
    def test_scheme_derived_from_n_and_m(self, params, scheme):
        assert SystemParams(*params).scheme is scheme

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(D=1, n=1, m=1),
            dict(D=3, n=0, m=1),
            dict(D=3, n=1, m=0),
        ],
    )
    def test_domain_validation(self, kwargs):
        with pytest.raises(InvalidParameterError):
            SystemParams(**kwargs)

    def test_non_integers_rejected(self):
        with pytest.raises(InvalidParameterError):
            SystemParams(3.0, 1, 1)


class TestClassifyRegime:
    @pytest.mark.parametrize(
        "D,n,m,expected",
        [
            (3, 1, 1, Classification.BOUND),
            (4, 1, 1, Classification.DIVERGENT),
            (7, 1, 2, Classification.REPULSIVE),
            (2, 1, 1, Classification.LOGARITHMIC),
            (3, 1, 2, Classification.INVALID),
            (5, 1, 1, Classification.SINGULAR),
            (7, 3, 3, Classification.BOUND),
            (12, 3, 3, Classification.DIVERGENT),
            (13, 3, 3, Classification.SINGULAR),
            (8, 2, 2, Classification.REPULSIVE),  # even m wins over the boundary
        ],
    )
    def test_examples(self, D, n, m, expected):
        assert classify_regime(D, n, m) is expected

    def test_precondition(self):
        with pytest.raises(InvalidParameterError):
            classify_regime(1, 1, 1)
        with pytest.raises(InvalidParameterError):
            classify_regime(3, 1, 0)

    @given(
        D=st.integers(min_value=2, max_value=200),
        n=st.integers(min_value=1, max_value=40),
        m=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=500)
    def test_total_and_single_valued(self, D, n, m):
        tag = classify_regime(D, n, m)
        assert isinstance(tag, Classification)
        # the decision table rebuilt independently, in priority order
        beta = D - 2 * m
        if beta < 0:
            expected = Classification.INVALID
        elif beta == 0:
            expected = Classification.LOGARITHMIC
        elif m % 2 == 0:
            expected = Classification.REPULSIVE
        elif beta == 2 * n:
            expected = Classification.DIVERGENT
        elif beta > 2 * n:
            expected = Classification.SINGULAR
        else:
            expected = Classification.BOUND
        assert tag is expected

    @given(
        D=st.integers(min_value=2, max_value=100),
        n=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=400)
    def test_m_equals_n_window(self, D, n):
        bound = classify_regime(D, n, n) is Classification.BOUND
        assert bound == (n % 2 == 1 and 2 * n < D < 4 * n)


class TestPotentialSpec:
    def test_a_zero_coupling_is_repulsive(self):
        # as classify_coupling calls every non-positive coupling repulsive
        assert PotentialSpec(SignedLogReal(0), 2).nature is PotentialNature.REPULSIVE
        assert classify_coupling(2, 0, 1) is Classification.REPULSIVE


class TestEnergyOutcome:
    def test_bound_requires_negative(self):
        with pytest.raises(InvalidParameterError):
            EnergyOutcome.bound(SignedLogReal.from_float(0.5))

    def test_non_bound_rejects_energy(self):
        with pytest.raises(InvalidParameterError):
            EnergyOutcome(
                Classification.DIVERGENT, energy=SignedLogReal.from_float(-1.0)
            )

    def test_invalid_requires_reason(self):
        with pytest.raises(InvalidParameterError):
            EnergyOutcome(Classification.INVALID)
        out = EnergyOutcome.invalid("short-range", "beta < 0")
        assert out.reason_code == "short-range"

    def test_classify_outcome_none_for_bound(self):
        assert classify_outcome(3, 1, 1) is None
        tagged = classify_outcome(3, 1, 2)
        assert tagged.classification is Classification.INVALID
        assert tagged.reason_code == "short-range"
        assert classify_outcome(4, 1, 1).classification is Classification.DIVERGENT
