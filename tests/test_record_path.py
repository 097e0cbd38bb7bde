"""The value types every scan record is built from, and the checks they run.

A record is built once per grid point and process by ``scan``, and once per
parse of any other row (an edited cell, an explicit coupling), so its value
types are slotted frozen dataclasses and the outcomes that carry no reason
are shared constants. ``SystemParams``, ``EnergyQuery`` and
``alpha_coefficient`` check each field with one ``require_int`` call, and
``build_record`` and ``evaluate_point`` take every energy and coupling
through ``e0_general`` and ``alpha_coefficient``, the same checked entry
points a caller of the library uses. These tests pin what that must not
change: the exception, code and message of every rejected argument (a type
and a range error for each field, and the first field named when two are
bad), the value semantics of each type, and records bit-identical to what
the public evaluators give.
"""

import copy
import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimspec import (
    Classification,
    DimspecError,
    EnergyOutcome,
    EnergyQuery,
    InvalidParameterError,
    PotentialSpec,
    Scheme,
    SignedLogReal,
    SystemParams,
    alpha_coefficient,
    classify_outcome,
    e0_general,
    evaluate_point,
    parse_records_csv,
    parse_records_json,
    render_records_csv,
    render_records_json,
)
from dimspec.feasibility import D_MAX, D_MIN, N_MAX, N_MIN, build_record
from dimspec.model import scheme_m
from dimspec.potential import D_LIMIT
from dimspec.spectrum import N_LIMIT

# past the 4 300 digits repr prints, so a message shows its bit length
BIG = 10**5000
BIG_SHOWN = "an int of 16610 bits"

ALPHA = SignedLogReal(1, 0.0)

# the (3, 1) record of the m = n scheme, the one the pins below edit cell by cell
_ROW = evaluate_point(3, 1, Scheme.M_EQUALS_N)
_CSV_HEADER, _CSV_ROW = render_records_csv([_ROW]).splitlines()
_JSON_ENTRY = json.loads(render_records_json([_ROW]))[0]
_WHERE = "record at D=3, n=1, m=1, beta=1"


def _csv(**cells) -> str:
    """The (3, 1) record's CSV, with ``cells`` replaced by column name."""
    row = dict(zip(_CSV_HEADER.split(","), _CSV_ROW.split(",")), **cells)
    return _CSV_HEADER + "\n" + ",".join(row.values()) + "\n"


def _json(**cells) -> str:
    """The (3, 1) record's JSON, with ``cells`` replaced by key."""
    return json.dumps([{**_JSON_ENTRY, **cells}])


def _not_int(name, shown):
    return "non-integer", f"{name} must be an integer, got {shown}"


SIGN = "sign must be -1, 0 or +1, got "
LNMAG = "lnmag must be finite, and 0.0 at sign 0; got "
NO_COUPLING = "'alpha_sign' and 'alpha_lnmag' give no coupling: " + SIGN
SHORT = "beta = D - 2m = -1 < 0: the potential is short-range"

# id -> (call, arguments, code, message); every one raises InvalidParameterError
PINS = {
    # SystemParams(D, n, m): D >= 2, n >= 1, m >= 1
    "params-bool": (SystemParams, (True, 1, 1), *_not_int("D", "True")),
    "params-float": (SystemParams, (3, 1.0, 1), *_not_int("n", "1.0")),
    "params-str": (SystemParams, (3, 1, "1"), *_not_int("m", "'1'")),
    "params-D-low": (SystemParams, (1, 1, 1), "bad-dimension", "need D >= 2, got 1"),
    "params-n-low": (SystemParams, (3, 0, 1), "bad-power", "need n >= 1, got 0"),
    "params-m-low": (SystemParams, (3, 1, 0), "bad-power", "need m >= 1, got 0"),
    "params-big": (
        SystemParams, (-BIG, 1, 1), "bad-dimension",
        "need D >= 2, got a negative int of 16610 bits",
    ),
    "params-two-bad": (SystemParams, (3, 0, 2.5), "bad-power", "need n >= 1, got 0"),
    "params-two-types": (SystemParams, (False, "n", 1), *_not_int("D", "False")),
    # EnergyQuery(alpha, beta, n, D): beta >= 0, 1 <= n <= N_LIMIT, D >= 2
    "query-alpha": (
        EnergyQuery, (1.0, 1, 1, 3), "malformed-query",
        "alpha must be a SignedLogReal or None, got 1.0",
    ),
    "query-bool": (EnergyQuery, (ALPHA, True, 1, 3), *_not_int("beta", "True")),
    "query-float": (EnergyQuery, (ALPHA, 1, 1.0, 3), *_not_int("n", "1.0")),
    "query-str": (EnergyQuery, (ALPHA, 1, 1, "3"), *_not_int("D", "'3'")),
    "query-beta-low": (EnergyQuery, (ALPHA, -1, 1, 3), "malformed-query", "need beta >= 0, got -1"),
    "query-n-low": (EnergyQuery, (ALPHA, 1, 0, 3), "out-of-range", "need n >= 1, got 0"),
    "query-n-high": (
        EnergyQuery, (ALPHA, 1, 10_001, 3), "out-of-range",
        "need n <= 10000, got 10001",
    ),
    "query-D-low": (EnergyQuery, (ALPHA, 1, 1, 1), "malformed-query", "need D >= 2, got 1"),
    "query-big": (
        EnergyQuery, (None, 1, BIG, 3), "out-of-range",
        f"need n <= 10000, got {BIG_SHOWN}",
    ),
    "query-two-bad": (EnergyQuery, (ALPHA, -1, 0, 1), "malformed-query", "need beta >= 0, got -1"),
    "query-beta-float": (EnergyQuery, (ALPHA, 1.0, 1, 3), *_not_int("beta", "1.0")),
    "query-n-bool": (EnergyQuery, (ALPHA, 1, True, 3), *_not_int("n", "True")),
    "query-D-float": (EnergyQuery, (ALPHA, 1, 1, 3.0), *_not_int("D", "3.0")),
    "query-type-then-range": (EnergyQuery, (None, 0.5, 0, 1), *_not_int("beta", "0.5")),
    "query-range-then-type": (
        EnergyQuery, (None, 1, 10_001, "3"), "out-of-range", "need n <= 10000, got 10001",
    ),
    "query-alpha-first": (
        EnergyQuery, ("a", True, 1, 3), "malformed-query",
        "alpha must be a SignedLogReal or None, got 'a'",
    ),
    # alpha_coefficient(D, m): 2 <= D <= D_LIMIT, m >= 1, D >= 2m
    "alpha-bool": (alpha_coefficient, (3, True), *_not_int("m", "True")),
    "alpha-float": (alpha_coefficient, (3.0, 1), *_not_int("D", "3.0")),
    "alpha-str": (alpha_coefficient, ("3", 1), *_not_int("D", "'3'")),
    "alpha-D-low": (alpha_coefficient, (1, 1), "out-of-domain", "need D >= 2, got 1"),
    "alpha-D-high": (alpha_coefficient, (10_001, 1), "out-of-domain", "need D <= 10000, got 10001"),
    "alpha-m-low": (alpha_coefficient, (3, 0), "out-of-domain", "need m >= 1, got 0"),
    "alpha-short-range": (alpha_coefficient, (3, 2), "short-range", SHORT),
    "alpha-big": (
        alpha_coefficient, (BIG, 1), "out-of-domain",
        f"need D <= 10000, got {BIG_SHOWN}",
    ),
    "alpha-two-bad": (alpha_coefficient, (1, 0), "out-of-domain", "need D >= 2, got 1"),
    "alpha-m-float": (alpha_coefficient, (3, 1.0), *_not_int("m", "1.0")),
    "alpha-m-str": (alpha_coefficient, (3, "1"), *_not_int("m", "'1'")),
    "alpha-type-then-range": (alpha_coefficient, (3.0, 0), *_not_int("D", "3.0")),
    "alpha-range-then-type": (
        alpha_coefficient, (10_001, True), "out-of-domain", "need D <= 10000, got 10001",
    ),
    # SignedLogReal(sign, lnmag): sign in {-1, 0, 1}, lnmag finite and 0.0 at sign 0
    "slr-bool": (SignedLogReal, (True, 0.0), "bad-sign", SIGN + "True"),
    "slr-float": (SignedLogReal, (1.0, 0.0), "bad-sign", SIGN + "1.0"),
    "slr-str": (SignedLogReal, (1, "x"), "bad-lnmag", LNMAG + "'x'"),
    "slr-sign-high": (SignedLogReal, (2, 0.0), "bad-sign", SIGN + "2"),
    "slr-sign-low": (SignedLogReal, (-2, 0.0), "bad-sign", SIGN + "-2"),
    "slr-inf": (SignedLogReal, (1, float("inf")), "bad-lnmag", LNMAG + "inf"),
    "slr-zero-lnmag": (SignedLogReal, (0, 1.0), "bad-lnmag", LNMAG + "1.0"),
    "slr-big-sign": (SignedLogReal, (BIG, 0.0), "bad-sign", SIGN + BIG_SHOWN),
    "slr-big-lnmag": (SignedLogReal, (1, BIG), "bad-lnmag", LNMAG + BIG_SHOWN),
    "slr-two-bad": (SignedLogReal, (2, float("nan")), "bad-sign", SIGN + "2"),
    # parse_records_csv: a cell its column cannot read, then the rebuilt record's own checks
    "csv-text": (parse_records_csv, (b"D",), "bad-header", "expected CSV text, got b'D'"),
    "csv-bool": (
        parse_records_csv, (_csv(D="True"),), "unparseable",
        "CSV column 'D': cannot read 'True' as int",
    ),
    "csv-float": (
        parse_records_csv, (_csv(n="1.0"),), "unparseable",
        "CSV column 'n': cannot read '1.0' as int",
    ),
    "csv-str": (
        parse_records_csv, (_csv(alpha_lnmag="x"),), "unparseable",
        "CSV column 'alpha_lnmag': cannot read 'x' as float",
    ),
    "csv-empty-key": (
        parse_records_csv, (_csv(beta=""),), "unparseable",
        "CSV column 'beta': cannot read '' as int",
    ),
    "csv-D-low": (parse_records_csv, (_csv(D="1"),), "bad-dimension", "need D >= 2, got 1"),
    "csv-n-high": (
        parse_records_csv, (_csv(n="10001"),), "out-of-range",
        "need n <= 10000, got 10001",
    ),
    "csv-big": (
        parse_records_csv, (_csv(m="9" * 5000),), "unparseable",
        f"CSV column 'm': cannot read {'9' * 5000!r} as int",
    ),
    "csv-two-bad": (
        parse_records_csv, (_csv(E0_sign="-1.0", n="x"),), "unparseable",
        "CSV column 'n': cannot read 'x' as int",
    ),
    "csv-empty-m": (
        parse_records_csv, (_csv(m=""),), "unparseable",
        "CSV column 'm': cannot read '' as int",
    ),
    "csv-alpha-sign": (
        parse_records_csv, (_csv(alpha_sign="+"),), "unparseable",
        "CSV column 'alpha_sign': cannot read '+' as int",
    ),
    "csv-E0-sign": (
        parse_records_csv, (_csv(E0_sign="-1.0"),), "unparseable",
        "CSV column 'E0_sign': cannot read '-1.0' as int",
    ),
    "csv-E0-lnmag": (
        parse_records_csv, (_csv(E0_lnmag="1e"),), "unparseable",
        "CSV column 'E0_lnmag': cannot read '1e' as float",
    ),
    "csv-paper": (
        parse_records_csv, (_csv(paper_E0="-0.11.1"),), "unparseable",
        "CSV column 'paper_E0': cannot read '-0.11.1' as float",
    ),
    "csv-ratio": (
        parse_records_csv, (_csv(ratio_log10="x"),), "unparseable",
        "CSV column 'ratio_log10': cannot read 'x' as float",
    ),
    "csv-two-bad-floats": (
        parse_records_csv, (_csv(ratio_log10="y", E0_lnmag="x"),), "unparseable",
        "CSV column 'E0_lnmag': cannot read 'x' as float",
    ),
    "csv-short-row": (
        parse_records_csv, (_CSV_HEADER + "\n3,1\n",), "unparseable",
        "CSV row has 2 cells, expected 13",
    ),
    "csv-long-row": (
        parse_records_csv, (_CSV_HEADER + "\n" + _CSV_ROW + ",x\n",), "unparseable",
        "CSV row has 14 cells, expected 13",
    ),
    "csv-sign": (parse_records_csv, (_csv(alpha_sign="2"),), "unparseable", NO_COUPLING + "2"),
    "csv-cell": (
        parse_records_csv, (_csv(E0_decimal="-1.12e-01"),), "unparseable",
        f"{_WHERE}: 'E0_decimal' reads '-1.12e-01', its inputs give '-1.11e-01'",
    ),
    # parse_records_json: the same rebuild, and each cell of its column's type
    "json-bool": (
        parse_records_json, (_json(alpha_sign=True),), "unparseable",
        NO_COUPLING + "True",
    ),
    "json-float": (
        parse_records_json, (_json(E0_sign=-1.0),), "unparseable",
        f"{_WHERE}: 'E0_sign' reads -1.0 of type float, not int",
    ),
    "json-int": (
        parse_records_json, (_json(alpha_lnmag=0),), "unparseable",
        f"{_WHERE}: 'alpha_lnmag' reads 0 of type int, not float",
    ),
    "json-key": (parse_records_json, (_json(D=3.0),), *_not_int("D", "3.0")),
    "json-two-bad": (
        parse_records_json, (_json(E0_sign=-1.0, alpha_lnmag=0),), "unparseable",
        f"{_WHERE}: 'alpha_lnmag' reads 0 of type int, not float",
    ),
}


@pytest.mark.parametrize("call,args,code,message", PINS.values(), ids=PINS.keys())
def test_each_rejection_is_pinned(call, args, code, message):
    with pytest.raises(DimspecError) as err:
        call(*args)
    assert (type(err.value), err.value.code, str(err.value)) == (
        InvalidParameterError, code, message
    )


# one value of each slotted type, and a field to try to assign
SLOTTED = {
    "SystemParams": (SystemParams(3, 1, 1), "D"),
    "PotentialSpec": (PotentialSpec(SignedLogReal(1, 0.5), 1), "beta"),
    "EnergyOutcome": (EnergyOutcome.bound(SignedLogReal(-1, -2.0)), "energy"),
    "ScanRecord": (_ROW, "paper_value"),
    "SignedLogReal": (SignedLogReal(-1, -2.0), "lnmag"),
    "EnergyQuery": (EnergyQuery(ALPHA, 1, 1, 3), "n"),
}


@pytest.mark.parametrize("value,field", SLOTTED.values(), ids=SLOTTED.keys())
class TestSlottedValue:
    def test_has_no_instance_dict(self, value, field):
        assert not hasattr(value, "__dict__")

    def test_fields_cannot_be_assigned(self, value, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, None)

    @pytest.mark.parametrize(
        "remake",
        [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, dataclasses.replace],
        ids=["pickle", "deepcopy", "replace"],
    )
    def test_copies_equal_the_original(self, value, field, remake):
        copied = remake(value)
        assert copied == value and hash(copied) == hash(value)


class TestSharedOutcomes:
    @pytest.mark.parametrize(
        "query,tag",
        [
            (EnergyQuery(ALPHA, 2, 1, 3), Classification.DIVERGENT),
            (EnergyQuery(ALPHA, 3, 1, 3), Classification.SINGULAR),
            (EnergyQuery(SignedLogReal(-1, 0.0), 1, 1, 3), Classification.REPULSIVE),
            (EnergyQuery(None, 0, 1, 2), Classification.LOGARITHMIC),
        ],
    )
    def test_e0_general(self, query, tag):
        fresh = EnergyOutcome(tag)
        out = e0_general(query)
        assert out == fresh and hash(out) == hash(fresh)
        assert e0_general(query) is out

    @pytest.mark.parametrize(
        "point,tag",
        [
            ((4, 1, 1), Classification.DIVERGENT),
            ((5, 1, 1), Classification.SINGULAR),
            ((5, 1, 2), Classification.REPULSIVE),
            ((4, 1, 2), Classification.LOGARITHMIC),
        ],
    )
    def test_classify_outcome(self, point, tag):
        fresh = EnergyOutcome(tag)
        out = classify_outcome(*point)
        assert out == fresh and hash(out) == hash(fresh)
        assert classify_outcome(*point) is out

    def test_invalid_outcomes_carry_their_own_reason(self):
        reasons = {
            classify_outcome(3, 1, m).reason for m in (2, 3)
        } | {
            build_record(SystemParams(3, 1, 1), beta, ALPHA, False).outcome.reason
            for beta in (-1, -2)
        }
        assert reasons == {
            "beta = D - 2m = -1 < 0: the potential is short-range",
            "beta = D - 2m = -3 < 0: the potential is short-range",
            "beta = -1 < 0: the potential is short-range",
            "beta = -2 < 0: the potential is short-range",
        }


def _bits(value):
    """An outcome as comparable bits (each float by its hex, so -0.0 and
    0.0 differ), or a raised error as its type, code and message."""
    if isinstance(value, DimspecError):
        return type(value), value.code, str(value)
    energy = value.energy
    return (
        value.classification,
        None if energy is None else (energy.sign, energy.lnmag.hex()),
        value.reason_code,
        value.reason,
    )


def _outcome(call):
    """``_bits`` of ``call()``'s outcome or of the error it raises."""
    try:
        return _bits(call())
    except DimspecError as exc:
        return _bits(exc)


def _coupling_bits(alpha):
    return None if alpha is None else (alpha.sign, alpha.lnmag.hex())


class TestRecordPathBitIdentity:
    """The records ``build_record`` and ``evaluate_point`` make must match
    what the public evaluators (``e0_general``, ``alpha_coefficient``) give,
    bit for bit."""

    @pytest.mark.parametrize("scheme", [Scheme.M_EQUALS_N, Scheme.M_EQUALS_ONE])
    def test_every_grid_point_matches_the_public_evaluators(self, scheme):
        checked = 0
        for D in range(D_MIN, D_MAX + 1):
            for n in range(N_MIN, N_MAX + 1):
                m = scheme_m(n, scheme)
                rec = evaluate_point(D, n, scheme)
                if D - 2 * m < 0:
                    assert rec.alpha is None
                    assert _bits(rec.outcome) == _bits(classify_outcome(D, n, m))
                    continue
                spec = alpha_coefficient(D, m)
                assert _coupling_bits(rec.alpha) == _coupling_bits(spec.alpha)
                expected = e0_general(EnergyQuery(spec.alpha, spec.beta, n, D))
                assert _bits(rec.outcome) == _bits(expected)
                checked += 1
        assert checked > 500

    @given(
        n=st.integers(1, 40)
        | st.sampled_from([N_LIMIT, N_LIMIT + 1])
        | st.integers(1, N_LIMIT + 1),
        D=st.integers(2, D_LIMIT),
        alpha=st.one_of(
            st.none(),
            st.builds(
                SignedLogReal,
                st.sampled_from([1, -1]),
                st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
                | st.floats(allow_nan=False, allow_infinity=False),
            ),
        ),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_explicit_couplings_match_e0_general(self, n, D, alpha, data):
        beta = data.draw(st.integers(-2, 2 * n + 1), label="beta")
        got = _outcome(lambda: build_record(SystemParams(D, n, 1), beta, alpha, False).outcome)
        expected = _outcome(lambda: e0_general(EnergyQuery(alpha, beta, n, D)))
        if beta >= 0:
            assert got == expected
        else:  # the query rejects a short range; the record classifies it
            assert expected[1] == "malformed-query"
            assert got[0] is Classification.INVALID and got[2] == "short-range"

    def test_n_past_the_limit_raises_the_query_error(self):
        params = SystemParams(3, N_LIMIT + 1, 1)
        with pytest.raises(InvalidParameterError) as err:
            build_record(params, 1, ALPHA, False)
        assert (err.value.code, str(err.value)) == ("out-of-range", "need n <= 10000, got 10001")

    def test_dimension_past_the_limit_raises_the_coupling_error(self):
        with pytest.raises(InvalidParameterError) as err:
            evaluate_point(D_LIMIT + 1, 1, Scheme.M_EQUALS_N)
        assert (err.value.code, str(err.value)) == (
            "out-of-domain", "need D <= 10000, got 10001"
        )
