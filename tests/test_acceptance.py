"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import time
from contextlib import contextmanager

import pytest

from dimspec import (
    Classification,
    EnergyQuery,
    KineticConvention,
    Scheme,
    SignedLogReal,
    alpha_coefficient,
    bound_dims,
    e0_general,
    e0_scheme_m1,
    e0_scheme_mn,
    evaluate_point,
    oracle_equivalence_report,
    parse_records_csv,
    parse_records_json,
    radial_ground_state,
    render_records_csv,
    render_records_json,
    scan,
    scheme_m1_discrepancies,
    sort_records,
    table1_compare,
)
from test_potential import alpha_m1_reference
from test_spectrum import hydrogen_k_star

_LN10 = math.log(10.0)


@contextmanager
def budget(label: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{label} took {elapsed:.2f}s, budget {seconds}s"
    print(f"[acceptance] {label}: PASS ({elapsed:.2f}s)")


def test_criterion_01_normalization_anchor():
    with budget("1 normalization anchor", 1.0):
        anchor = alpha_coefficient(3, 1).alpha
        assert abs(anchor.to_float() - 1.0) <= 1e-14
        for D in range(3, 41):
            general = alpha_coefficient(D, 1).alpha
            closed = alpha_m1_reference(D)
            rel = abs(math.expm1(general.lnmag - closed))
            assert rel <= 1e-12, D


def test_criterion_02_reference_anchor_row():
    with budget("2 reference row (3,1)", 1.0):
        out = e0_scheme_mn(3, 1)
        assert out.is_bound
        computed = out.energy.to_float()
        assert computed == pytest.approx(-1.0 / 9.0, rel=1e-12)
        assert abs(computed - (-0.11)) / 0.11 <= 2e-2


def test_criterion_03_oracle_equivalence():
    with budget("3 oracle equivalence", 5.0):
        report = oracle_equivalence_report(max_n=5, max_D=20)
        assert len(report.points) >= 15
        assert report.max_lnmag_deviation <= 1e-8
        assert report.max_r_star_deviation <= 1e-9


def test_criterion_04_scheme_consistency():
    with budget("4 scheme consistency", 5.0):
        for n in (1, 3, 5, 7):
            for D in range(2 * n + 1, 4 * n):
                printed = e0_scheme_mn(D, n)
                spec = alpha_coefficient(D, n)
                general = e0_general(EnergyQuery(spec.alpha, D - 2 * n, n, D))
                assert printed.is_bound and general.is_bound
                gap = abs(printed.energy.lnmag - general.energy.lnmag)
                assert gap <= 1e-10 * max(1.0, abs(general.energy.lnmag)), (D, n)
        # n = 1, D = 3: the printed m = 1 form and the general route agree
        a = e0_scheme_m1(3, 1).energy.lnmag
        b = evaluate_point(3, 1, Scheme.M_EQUALS_ONE).outcome.energy.lnmag
        assert abs(a - b) <= 1e-12
        # n > 1: the printed-form discrepancy report is non-empty
        for n in (3, 5, 7):
            assert scheme_m1_discrepancies(n), n


def test_criterion_05_feasibility_lists():
    with budget("5 feasibility lists", 1.0):
        assert bound_dims(1, Scheme.M_EQUALS_N).members == (3,)
        assert bound_dims(3, Scheme.M_EQUALS_N).members == (7, 8, 9, 10, 11)
        for n in (2, 4, 6, 8, 10):
            assert bound_dims(n, Scheme.M_EQUALS_N).members == ()
        # D = 4, 5 and 6 are bound for no n
        for n in range(1, 64 + 1):
            assert not {4, 5, 6} & set(bound_dims(n, Scheme.M_EQUALS_N).members), n
        window = bound_dims(3, Scheme.M_EQUALS_ONE)
        assert window.members == (3, 4, 5, 6, 7)
        assert window.paper_omitted == (4,)


def test_criterion_06_radial_oracle():
    with budget("6 radial oracle", 10.0):
        full = radial_ground_state(3, 1.0, 1, KineticConvention.FULL_LAPLACIAN, 0)
        assert full.energy == pytest.approx(-0.25, abs=1e-4)
        half = radial_ground_state(3, 1.0, 1, KineticConvention.HALF_LAPLACIAN, 0)
        assert half.energy == pytest.approx(-0.5, abs=1e-4)
        excited = radial_ground_state(3, 1.0, 1, KineticConvention.HALF_LAPLACIAN, 1)
        assert excited.energy == pytest.approx(-0.125, abs=1e-4)
        assert excited.nodes == 1


def test_criterion_07_magnitude_stress():
    with budget("7 magnitude stress (19,5)", 1.0):
        out = e0_scheme_mn(19, 5)
        assert out.is_bound
        assert math.isfinite(out.energy.lnmag)
        decimal = out.energy.to_decimal()
        assert out.energy.lnmag <= -90.0 * _LN10
        assert abs(float(decimal)) <= 1e-90
        row = next(r for r in table1_compare() if (r.D, r.n) == (19, 5))
        assert row.ratio_log10 is not None and math.isfinite(row.ratio_log10)


def test_criterion_08_monotonicity_and_uniqueness():
    with budget("8 monotonicity and uniqueness", 5.0):
        for n in (3, 5):
            members = bound_dims(n, Scheme.M_EQUALS_N).members
            lnmags = []
            for D in members:
                spec = alpha_coefficient(D, n)
                lnmags.append(
                    e0_general(EnergyQuery(spec.alpha, D - 2 * n, n, D)).energy.lnmag
                )
            assert all(a > b for a, b in zip(lnmags, lnmags[1:])), n
        # global maximum of |E0| over every bound point with n <= 9
        best = None
        for n in range(1, 10):
            for D in bound_dims(n, Scheme.M_EQUALS_N).members:
                lnmag = e0_scheme_mn(D, n).energy.lnmag
                if best is None or lnmag > best[0]:
                    best = (lnmag, D, n)
        assert best[1:] == (3, 1)
        # no bound state at D = 3 for any n > 1
        for n in range(2, 17):
            assert e0_scheme_mn(3, n).classification is not Classification.BOUND


def test_criterion_09_rydberg_equivalence():
    with budget("9 Rydberg equivalence", 1.0):
        assert round(hydrogen_k_star(SignedLogReal.from_float(-0.00041))) == 35
        for k in range(1, 101):
            got = hydrogen_k_star(SignedLogReal.from_float(-1.0 / (2.0 * k * k)))
            assert abs(got - k) <= 1e-12 * k
            assert round(got) == k


def test_criterion_10_serialization_round_trip():
    with budget("10 serialization round trip", 5.0):
        for scheme in (Scheme.M_EQUALS_N, Scheme.M_EQUALS_ONE):
            records = scan(range(3, 23), range(1, 11), scheme)
            assert len(records) == 200
            assert parse_records_csv(render_records_csv(records)) == records
            assert parse_records_json(render_records_json(records)) == records
        # deterministic bytes: two scans of one grid render identically
        first = sort_records(scan(range(3, 23), range(1, 11), Scheme.M_EQUALS_N))
        second = sort_records(scan(range(3, 23), range(1, 11), Scheme.M_EQUALS_N))
        assert render_records_csv(first) == render_records_csv(second)
