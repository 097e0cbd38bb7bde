import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimspec import (
    Classification,
    InvalidParameterError,
    Scheme,
    bound_dims,
    classify_regime,
    evaluate_point,
    scan,
)
from dimspec.feasibility import D_MAX, D_MIN, N_MAX, N_MIN
from dimspec.model import scheme_m
from dimspec.potential import N_LIMIT
from dimspec.report import record_fields


class TestBoundDims:
    def test_n1_single_dimension(self):
        window = bound_dims(1, Scheme.M_EQUALS_N)
        assert window.members == (3,)
        assert (window.d_min, window.d_max) == (2, 4)

    def test_n3_window(self):
        assert bound_dims(3, Scheme.M_EQUALS_N).members == (7, 8, 9, 10, 11)

    def test_even_n_empty(self):
        for n in (2, 4, 6, 8):
            assert bound_dims(n, Scheme.M_EQUALS_N).members == ()

    def test_m1_n3_full_inequality_set(self):
        window = bound_dims(3, Scheme.M_EQUALS_ONE)
        assert window.members == (3, 4, 5, 6, 7)
        assert window.paper_omitted == (4,)

    def test_m1_n1(self):
        assert bound_dims(1, Scheme.M_EQUALS_ONE).members == (3,)

    def test_explicit_scheme_rejected(self):
        with pytest.raises(InvalidParameterError):
            bound_dims(3, Scheme.EXPLICIT)

    @pytest.mark.parametrize("scheme", [Scheme.M_EQUALS_N, Scheme.M_EQUALS_ONE])
    def test_n_limit(self, scheme):
        # the window of n holds ~2n dimensions, so n is capped like a query's
        assert bound_dims(N_LIMIT, scheme).n == N_LIMIT
        for n in (N_LIMIT + 1, 10**30):
            with pytest.raises(InvalidParameterError) as err:
                bound_dims(n, scheme)
            assert err.value.code == "out-of-range"

    @given(n=st.integers(min_value=1, max_value=32).filter(lambda n: n % 2 == 1))
    @settings(max_examples=60)
    def test_smallest_member_is_2n_plus_1(self, n):
        window = bound_dims(n, Scheme.M_EQUALS_N)
        assert window.members[0] == 2 * n + 1

    @given(
        n=st.integers(min_value=1, max_value=16),
        scheme=st.sampled_from([Scheme.M_EQUALS_N, Scheme.M_EQUALS_ONE]),
    )
    @settings(max_examples=200)
    def test_members_match_classification(self, n, scheme):
        window = bound_dims(n, scheme)
        m_of = (lambda: n) if scheme is Scheme.M_EQUALS_N else (lambda: 1)
        for D in range(2, 4 * n + 4):
            in_window = D in window.members
            bound = classify_regime(D, n, m_of()) is Classification.BOUND
            assert in_window == bound, (D, n, scheme)


def _bound_dims_per_d(n, scheme):
    """The window's members as one classification per D gives them."""
    m = scheme_m(n, scheme)
    return tuple(
        D
        for D in range(2 * m + 1, 2 * (m + n))
        if classify_regime(D, n, m) is Classification.BOUND
    )


class TestOneClassificationPerWindow:
    """``bound_dims`` classifies a window once; every D of it, classified on
    its own, gives the same members."""

    @pytest.mark.parametrize("scheme", [Scheme.M_EQUALS_N, Scheme.M_EQUALS_ONE])
    def test_every_window_up_to_n_200(self, scheme):
        for n in range(1, 201):
            assert bound_dims(n, scheme).members == _bound_dims_per_d(n, scheme), n

    @given(
        n=st.integers(min_value=1, max_value=N_LIMIT),
        scheme=st.sampled_from([Scheme.M_EQUALS_N, Scheme.M_EQUALS_ONE]),
    )
    @settings(max_examples=60)
    def test_windows_up_to_n_limit(self, n, scheme):
        assert bound_dims(n, scheme).members == _bound_dims_per_d(n, scheme)


class TestEveryListedDimensionEvaluates:
    """D_LIMIT reaches the last D of the widest window, so every dimension a
    window of n <= N_LIMIT lists has a coupling and a bound energy."""

    @pytest.mark.parametrize(
        "n,scheme", [(N_LIMIT - 1, Scheme.M_EQUALS_N), (N_LIMIT, Scheme.M_EQUALS_ONE)]
    )
    def test_the_widest_windows_evaluate_bound(self, n, scheme):
        members = bound_dims(n, scheme).members
        assert len(members) == 2 * n - 1
        rng = random.Random(n)
        for D in (members[0], members[-1], *rng.sample(members, 4)):
            outcome = evaluate_point(D, n, scheme).outcome
            assert outcome.is_bound and outcome.energy.sign == -1, (D, n, scheme)


class TestUniversalExclusion:
    def test_verified_set(self):
        # no m = n window up to n = 64 holds D = 4, 5 or 6
        for n in range(1, 64 + 1):
            assert not {4, 5, 6} & set(bound_dims(n, Scheme.M_EQUALS_N).members), n

    def test_windows_3_and_7_to_11_avoid_the_set(self):
        assert not set(bound_dims(1, Scheme.M_EQUALS_N).members) & {4, 5, 6}
        assert not set(bound_dims(3, Scheme.M_EQUALS_N).members) & {4, 5, 6}


class TestScan:
    def test_grid_counts(self):
        records = scan(range(3, 12), [1, 3], Scheme.M_EQUALS_N)
        assert len(records) == 18
        assert sum(rec.outcome.is_bound for rec in records) == 6

    def test_row_major_order(self):
        records = scan([3, 4], [1, 3], Scheme.M_EQUALS_N)
        assert [(r.params.D, r.params.n) for r in records] == [
            (3, 1),
            (3, 3),
            (4, 1),
            (4, 3),
        ]

    def test_excluded_dimensions_never_bind(self):
        records = scan(range(4, 7), range(1, 17), Scheme.M_EQUALS_N)
        assert not any(rec.outcome.is_bound for rec in records)

    def test_formula_tag_and_reference_values(self):
        records = scan(range(3, 12), [1, 3], Scheme.M_EQUALS_N)
        assert all(record_fields(rec)["formula"] == "Eq2" for rec in records)
        with_reference = {
            (rec.params.D, rec.params.n)
            for rec in records
            if rec.paper_value is not None
        }
        assert with_reference == {(3, 1), (7, 3), (8, 3), (9, 3), (10, 3), (11, 3)}

    def test_m1_scan_has_no_reference_values(self):
        records = scan(range(3, 8), [3], Scheme.M_EQUALS_ONE)
        assert all(rec.paper_value is None for rec in records)
        assert all(rec.params.m == 1 for rec in records)

    def test_empty_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            scan([], [1], Scheme.M_EQUALS_N)

    def test_caps_enforced(self):
        with pytest.raises(InvalidParameterError):
            scan([65], [1], Scheme.M_EQUALS_N)
        with pytest.raises(InvalidParameterError):
            scan([3], [17], Scheme.M_EQUALS_N)
        with pytest.raises(InvalidParameterError):
            scan(range(2, 10**12), [1], Scheme.M_EQUALS_N)  # rejected unexpanded

    def test_explicit_scheme_rejected(self):
        with pytest.raises(InvalidParameterError):
            scan([3], [1], Scheme.EXPLICIT)
        with pytest.raises(InvalidParameterError):
            evaluate_point(3, 1, Scheme.EXPLICIT)

    @pytest.mark.parametrize("scheme", [Scheme.M_EQUALS_N, Scheme.M_EQUALS_ONE])
    def test_full_grid_classified_as_classify_regime(self, scheme):
        records = scan(range(D_MIN, D_MAX + 1), range(N_MIN, N_MAX + 1), scheme)
        assert len(records) == 1008
        for rec in records:
            D, n, m = rec.params.D, rec.params.n, rec.params.m
            assert rec.outcome.classification is classify_regime(D, n, m), (D, n, m)

    def test_no_bound_at_three_dimensions_unless_n_is_one(self):
        records = scan([3], range(1, 17), Scheme.M_EQUALS_N)
        bound_ns = [rec.params.n for rec in records if rec.outcome.is_bound]
        assert bound_ns == [1]
