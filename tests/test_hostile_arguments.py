"""Every public call returns or raises a DimspecError, whatever its arguments.

The library-level counterpart of the CLI's ``TestRobustness``: each argument
is drawn from ints (on the lattice, at its limits, negative and huge, past
the 4 300 digits ``repr`` prints), floats (nan and infinities too), bools,
strs, None, and a few library values that let a call get past its argument
checks, couplings at the edge of the float range among them. A bare
TypeError, ValueError, AttributeError or OverflowError fails the property.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimspec import (
    DimspecError,
    EnergyQuery,
    KineticConvention,
    Scheme,
    SignedLogReal,
    SystemParams,
    alpha_coefficient,
    alpha_m1_closed_form,
    bound_dims,
    classify_coupling,
    classify_outcome,
    classify_regime,
    e0_general,
    e0_scheme_m1,
    e0_scheme_m1_rederived,
    e0_scheme_mn,
    effective_quantum_number,
    evaluate_point,
    log_gamma_half,
    minimize_v_eff,
    oracle_equivalence_report,
    parse_records_csv,
    parse_records_json,
    radial_ground_state,
    render_records_csv,
    render_records_json,
    scan,
    scheme_m1_discrepancies,
    sort_records,
)
from dimspec.potential import D_LIMIT
from dimspec.spectrum import N_LIMIT

_VALUES = st.one_of(
    # the lattice near its lower edges, where most domains start
    st.integers(min_value=-3, max_value=70),
    st.sampled_from(
        [-(10**5000), -(10**400), -(2**63), 2**63, 10**400, 10**5000]
        + [N_LIMIT, N_LIMIT + 1, D_LIMIT, D_LIMIT + 1]
    ),
    st.floats(),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
    st.sampled_from(
        [SignedLogReal(1, 0.0), SignedLogReal(-1, -1.0), SignedLogReal(0), *Scheme]
        + [SignedLogReal(1, 1e308), SignedLogReal(1, -1e308), SignedLogReal(1, -1e200)]
        + list(KineticConvention)
    ),
)

# name -> (call, number of arguments)
_CALLS = {
    "SystemParams": (SystemParams, 3),
    "EnergyQuery": (EnergyQuery, 4),
    "e0_general": (lambda *a: e0_general(EnergyQuery(*a)), 4),
    "minimize_v_eff": (lambda *a: minimize_v_eff(EnergyQuery(*a)), 4),
    "e0_general of a non-query": (e0_general, 1),
    "minimize_v_eff of a non-query": (minimize_v_eff, 1),
    "SignedLogReal": (SignedLogReal, 2),
    "SignedLogReal.from_float": (SignedLogReal.from_float, 1),
    "SignedLogReal.to_decimal": (lambda s, l, d: SignedLogReal(s, l).to_decimal(d), 3),
    "classify_coupling": (classify_coupling, 3),
    "classify_regime": (classify_regime, 3),
    "classify_outcome": (classify_outcome, 3),
    "alpha_coefficient": (alpha_coefficient, 2),
    "alpha_m1_closed_form": (alpha_m1_closed_form, 1),
    "log_gamma_half": (log_gamma_half, 1),
    "bound_dims": (bound_dims, 2),
    "evaluate_point": (evaluate_point, 3),
    "scan": (scan, 3),
    "scan of lists": (lambda d, n, s: scan([d], [n, d], s), 3),
    "e0_scheme_mn": (e0_scheme_mn, 2),
    "e0_scheme_m1": (e0_scheme_m1, 2),
    "e0_scheme_m1_rederived": (e0_scheme_m1_rederived, 2),
    "effective_quantum_number": (effective_quantum_number, 1),
    "scheme_m1_discrepancies": (scheme_m1_discrepancies, 1),
    "oracle_equivalence_report": (oracle_equivalence_report, 2),
    "radial_ground_state": (radial_ground_state, 5),
    "parse_records_csv": (parse_records_csv, 1),
    "parse_records_json": (parse_records_json, 1),
    "render_records_csv": (lambda v: render_records_csv([v]), 1),
    "render_records_json": (lambda v: render_records_json([v]), 1),
    "sort_records": (lambda v: sort_records([v]), 1),
    "render_records_csv of a non-list": (render_records_csv, 1),
    "render_records_json of a non-list": (render_records_json, 1),
    "sort_records of a non-list": (sort_records, 1),
}


class TestRobustness:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_public_call_ends_in_a_value_or_a_dimspec_error(self, data):
        name = data.draw(st.sampled_from(sorted(_CALLS)), label="call")
        call, arity = _CALLS[name]
        args = data.draw(st.tuples(*[_VALUES] * arity), label="args")
        try:
            call(*args)
        except DimspecError:
            pass

    @given(
        lnmag=st.floats(allow_nan=False, allow_infinity=False),
        n=st.sampled_from([1, 2, 3, 100, N_LIMIT]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_bound_couplings_end_in_a_value_or_a_dimspec_error(self, lnmag, n, data):
        """An attractive coupling inside the window 0 < beta < 2n, with
        ln alpha anywhere in the float range: the closed form and the V_eff
        search each return or raise a DimspecError."""
        beta = data.draw(st.integers(1, 2 * n - 1), label="beta")
        D = data.draw(st.sampled_from([2, 3, 64, D_LIMIT]), label="D")
        query = EnergyQuery(SignedLogReal(1, lnmag), beta, n, D)
        for solve in (e0_general, minimize_v_eff):
            try:
                solve(query)
            except DimspecError:
                pass

    @pytest.mark.parametrize(
        "call,args",
        [
            (lambda: minimize_v_eff(EnergyQuery(SignedLogReal(1, 0.0), 1, 1, 0)), ()),
            (lambda: e0_general(EnergyQuery(SignedLogReal(1, 0.0), 1, "x", 3)), ()),
            (lambda: e0_general(EnergyQuery(1.0, 1, 1, 3)), ()),
            (alpha_coefficient, (3.5, 1)),
            (alpha_coefficient, (7, 1.5)),
            (alpha_m1_closed_form, (3.5,)),
            (log_gamma_half, (2.5,)),
            (bound_dims, (1.5, Scheme.M_EQUALS_N)),
            (bound_dims, ("a", Scheme.M_EQUALS_ONE)),
            (scheme_m1_discrepancies, (1.5,)),
            (oracle_equivalence_report, (1.5, 20)),
            (effective_quantum_number, (-0.25,)),
            (classify_coupling, ("1", 1, 1)),
            (SignedLogReal, (2,)),
            (SignedLogReal.from_float, (float("nan"),)),
            (lambda: minimize_v_eff(EnergyQuery(SignedLogReal(1, 1e308), 1, 1, 3)), ()),
            (lambda: minimize_v_eff(EnergyQuery(SignedLogReal(1, -1e308), 1, 1, 3)), ()),
            (lambda: minimize_v_eff(EnergyQuery(SignedLogReal(1, -1e200), 1, N_LIMIT, 3)), ()),
            (EnergyQuery, (None, 1, 10**5000, 3)),
            (alpha_coefficient, (10**5000, 1)),
            (alpha_coefficient, (3, 10**5000)),
            (bound_dims, (10**5000, Scheme.M_EQUALS_N)),
            (bound_dims, (-(10**5000), Scheme.M_EQUALS_ONE)),
            (log_gamma_half, (-(10**5000),)),
            (SignedLogReal, (1, 10**5000)),
            (radial_ground_state, (3, 10**5000)),
            (parse_records_csv, (10**5000,)),
            (parse_records_csv, ([10**5000],)),
            (SignedLogReal(1, 0.0).to_decimal, (0,)),
            (SignedLogReal(1, 0.0).to_decimal, (-1,)),
            (SignedLogReal(1, 0.0).to_decimal, ("x",)),
            (SignedLogReal(1, 0.0).to_decimal, (True,)),
        ],
        ids=[
            "minimize_v_eff-D0", "e0_general-n-str", "e0_general-alpha-float",
            "alpha_coefficient-D-float", "alpha_coefficient-m-float", "alpha_m1_closed_form",
            "log_gamma_half", "bound_dims-float", "bound_dims-str", "scheme_m1_discrepancies",
            "oracle_equivalence_report", "effective_quantum_number", "classify_coupling",
            "SignedLogReal-sign-2", "SignedLogReal.from_float-nan",
            "minimize_v_eff-lnmag-1e308", "minimize_v_eff-lnmag--1e308",
            "minimize_v_eff-lnmag--1e200-n-limit", "EnergyQuery-n-5001-digits",
            "alpha_coefficient-D-5001-digits", "alpha_coefficient-m-5001-digits",
            "bound_dims-n-5001-digits", "bound_dims-n--5001-digits",
            "log_gamma_half--5001-digits", "SignedLogReal-lnmag-5001-digits",
            "radial_ground_state-alpha-5001-digits", "parse_records_csv-5001-digits",
            "parse_records_csv-list-of-5001-digits",
            "to_decimal-0", "to_decimal--1", "to_decimal-str", "to_decimal-bool",
        ],
    )
    def test_known_escapes_raise_a_dimspec_error(self, call, args):
        with pytest.raises(DimspecError):
            call(*args)

    @pytest.mark.parametrize(
        "call,args",
        [(classify_outcome, (10**5000, 1, 10**5000)), (e0_scheme_m1, (10**5000, 10**5000))],
        ids=["classify_outcome-5001-digits", "e0_scheme_m1-5001-digits"],
    )
    def test_known_escapes_return_an_invalid_outcome(self, call, args):
        """Their reason names an int too long to print by its bit length."""
        outcome = call(*args)
        assert outcome.reason_code in ("short-range", "printed-form-undefined")
        assert "int of 1661" in outcome.reason
