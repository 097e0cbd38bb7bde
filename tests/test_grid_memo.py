"""The grid memo: ``scan`` makes the record of each grid point once per
process, and both parsers return that memoized record for a row that is
exactly its wire form; any other row takes the rebuild path.

These tests pin what the memo must not change or outgrow: it holds at most
one record per grid point and scheme, 2 016 in all; only a scan adds one;
a repeated scan returns the same objects, equal to what the uncached
``evaluate_point`` makes; and a parse through the memo gives what the
rebuild path gives, a record with the same bits or an error with the same
type, code and message, however one cell of a grid record's CSV or JSON is
edited.
"""

import csv
import io
import json
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimspec import (
    DimspecError,
    InvalidParameterError,
    Scheme,
    SignedLogReal,
    SystemParams,
    evaluate_point,
    parse_records_csv,
    parse_records_json,
    render_records_csv,
    render_records_json,
    report,
    scan,
)
from dimspec.feasibility import D_MAX, D_MIN, N_MAX, N_MIN, _GRID_RECORDS, build_record
from dimspec.report import CSV_COLUMNS, record_fields

SCHEMES = (Scheme.M_EQUALS_N, Scheme.M_EQUALS_ONE)
DS = range(D_MIN, D_MAX + 1)
NS = range(N_MIN, N_MAX + 1)
_MEMOS = (*_GRID_RECORDS.values(), report._MN_WIRE, report._M1_WIRE)


def _memo_size() -> int:
    return sum(map(len, _GRID_RECORDS.values()))


def _wire_size() -> int:
    return len(report._MN_WIRE) + len(report._M1_WIRE)


@pytest.fixture
def empty_memo():
    """The record memo and the parsers' wire entries emptied for one test,
    and refilled as they were after it."""
    saved = [dict(memo) for memo in _MEMOS]
    for memo in _MEMOS:
        memo.clear()
    yield
    for memo, entries in zip(_MEMOS, saved):
        memo.clear()
        memo.update(entries)


class TestMemoBound:
    def test_three_whole_grid_scans_fill_exactly_the_grid(self):
        for _ in range(3):
            for scheme in SCHEMES:
                records = scan(DS, NS, scheme)
                assert parse_records_csv(render_records_csv(records)) == records
                assert parse_records_json(render_records_json(records)) == records
        assert _memo_size() == len(DS) * len(NS) * len(SCHEMES) == 2016
        assert _wire_size() <= 2016

    @pytest.mark.parametrize(
        "Ds,ns,scheme",
        [
            ([3, D_MAX + 1], [1], Scheme.M_EQUALS_N),
            ([3], [1, 0], Scheme.M_EQUALS_ONE),
            ([True], [1], Scheme.M_EQUALS_N),
            ([3], [False], Scheme.M_EQUALS_ONE),
            ([3], [1], Scheme.EXPLICIT),
            ([3], [1], "mn"),
        ],
        ids=["D-65", "n-0", "D-bool", "n-bool", "explicit", "scheme-str"],
    )
    def test_a_rejected_scan_adds_no_entry(self, empty_memo, Ds, ns, scheme):
        with pytest.raises(InvalidParameterError):
            scan(Ds, ns, scheme)
        assert _memo_size() == 0

    def test_evaluate_point_stays_uncached(self, empty_memo):
        assert evaluate_point(100, 1, Scheme.M_EQUALS_N).params.D == 100
        first = evaluate_point(3, 1, Scheme.M_EQUALS_N)
        assert first == evaluate_point(3, 1, Scheme.M_EQUALS_N)
        assert first is not evaluate_point(3, 1, Scheme.M_EQUALS_N)
        assert _memo_size() == 0

    def test_parsing_adds_no_entry(self, empty_memo):
        explicit = build_record(SystemParams(3, 1, 1), 2, SignedLogReal(1, 0.5), False)
        unscanned = evaluate_point(7, 3, Scheme.M_EQUALS_ONE)
        for records in ([explicit], [unscanned]):
            assert parse_records_csv(render_records_csv(records)) == records
            assert parse_records_json(render_records_json(records)) == records
        assert _memo_size() == 0 and _wire_size() == 0
        scanned = scan([3], [1], Scheme.M_EQUALS_ONE)
        assert parse_records_csv(render_records_csv([explicit])) == [explicit]
        assert parse_records_json(render_records_json([explicit])) == [explicit]
        assert _memo_size() == 1 and _wire_size() == 1
        assert parse_records_json(render_records_json(scanned))[0] is scanned[0]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_a_repeated_scan_returns_the_same_objects(self, scheme):
        first = scan(DS, NS, scheme)
        again = scan(reversed(DS), list(NS) * 2, scheme)
        assert len(again) == len(first) == len(DS) * len(NS)
        assert all(a is b for a, b in zip(first, again))
        for rec in first:
            assert rec == evaluate_point(rec.params.D, rec.params.n, scheme)


# -- memo path against rebuild path ------------------------------------------


def _slr_bits(value):
    return None if value is None else (value.sign, value.lnmag.hex())


def _record_bits(rec):
    """A record as comparable bits, each float by its hex, so -0.0 and 0.0
    differ."""
    out = rec.outcome
    return (
        rec.params,
        rec.beta,
        _slr_bits(rec.alpha),
        out.classification,
        _slr_bits(out.energy),
        out.reason_code,
        out.reason,
        None if rec.paper_value is None else rec.paper_value.hex(),
    )


def _result(parse, text):
    """The bits of each parsed record, or the error's type, code and message."""
    try:
        return [_record_bits(rec) for rec in parse(text)]
    except DimspecError as exc:
        return type(exc), exc.code, str(exc)


def _rebuild_result(parse, text):
    """``_result`` with the memo lookup switched off: every row is rebuilt."""
    with mock.patch.object(report, "_memoized_record", lambda f: None):
        return _result(parse, text)


def _csv_text(entry) -> str:
    """The CSV a writer would make of one row holding ``entry``'s values in
    its order: None empty, a float by repr, anything else by str."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerow(entry.values() if isinstance(entry, dict) else entry)
    return buf.getvalue()


# grid points of both schemes, with n = 1 (where m = 1 under both) and the
# (3, 1) point, whose coupling's lnmag is exactly 0.0, drawn often
_POINTS = st.one_of(
    st.tuples(st.integers(D_MIN, D_MAX), st.integers(N_MIN, N_MAX)),
    st.tuples(st.integers(D_MIN, D_MAX), st.just(1)),
    st.tuples(st.just(3), st.integers(N_MIN, N_MAX)),
    st.just((3, 1)),
)
EDITS = ("none", "value", "type", "negative-zero", "missing", "extra", "order", "not-an-object")


def _other_value(value, draw):
    if type(value) is int:
        return draw(st.sampled_from([value + 1, value - 1, -value, 0, D_MAX + 1]))
    if type(value) is float:
        return draw(
            st.sampled_from([value + 1.0, 2 * value, -value, math.nextafter(value, math.inf), 0.0])
        )
    if type(value) is str:
        return draw(st.sampled_from(["", "x", "bound", "singular", value + "0"]))
    return draw(st.sampled_from([0, 0.0, 1, -1.0, "x"]))


def _other_type(value, draw):
    if type(value) is int:
        return draw(st.sampled_from([float(value), bool(value)]))
    if type(value) is float:
        return draw(st.sampled_from([int(value), bool(value)]))
    return draw(st.sampled_from([0, 0.0, False]))


def _edited(entry: dict, edit: str, draw):
    """``entry`` with one cell, key or the order of its keys changed."""
    entry = dict(entry)
    col = draw(st.sampled_from(CSV_COLUMNS), label="column")
    if edit == "value":
        entry[col] = _other_value(entry[col], draw)
    elif edit == "type":
        entry[col] = _other_type(entry[col], draw)
    elif edit == "negative-zero":
        zeros = [c for c, v in entry.items() if type(v) is float and v == 0.0]
        entry[draw(st.sampled_from(zeros), label="zero") if zeros else col] = -0.0
    elif edit == "missing":
        del entry[col]
    elif edit == "extra":
        entry[draw(st.sampled_from([col + "_2", "scheme"]), label="key")] = 1
    elif edit == "order":
        keys = draw(st.permutations(list(entry)), label="order")
        entry = {key: entry[key] for key in keys}
    elif edit == "not-an-object":
        return list(entry.values())
    return entry


class TestMemoPathEqualsRebuildPath:
    @given(
        point=_POINTS,
        scheme=st.sampled_from(SCHEMES),
        edit=st.sampled_from(EDITS),
        data=st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_one_edited_cell(self, point, scheme, edit, data):
        D, n = point
        scanned = {s: scan([D], [n], s)[0] for s in SCHEMES}
        entry = _edited(record_fields(scanned[scheme]), edit, data.draw)
        json_text = json.dumps([entry])
        csv_text = _csv_text(entry)
        for parse, text in ((parse_records_json, json_text), (parse_records_csv, csv_text)):
            assert _result(parse, text) == _rebuild_result(parse, text)
        if edit == "none":
            for parse, text in ((parse_records_json, json_text), (parse_records_csv, csv_text)):
                (parsed,) = parse(text)
                assert any(parsed is rec for rec in scanned.values())

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_negative_zero_coupling_takes_the_rebuild_path(self, scheme):
        (rec,) = scan([3], [1], scheme)
        assert rec.alpha.lnmag == 0.0
        entry = {**record_fields(rec), "alpha_lnmag": -0.0}
        texts = ((parse_records_json, json.dumps([entry])), (parse_records_csv, _csv_text(entry)))
        for parse, text in texts:
            (parsed,) = parse(text)
            assert parsed is not rec and parsed == rec
            assert math.copysign(1.0, parsed.alpha.lnmag) == -1.0
            assert [_record_bits(parsed)] == _rebuild_result(parse, text)
