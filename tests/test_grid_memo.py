"""The grid memo: ``scan`` makes the record of each grid point once per
process, ``report`` keeps one wire entry beside each memoized record it
writes or reads, and both parsers return that memoized record for a row
that is exactly its wire form; any other row takes the rebuild path.

These tests pin what the memo must not change or outgrow: it holds at most
one record per grid point and scheme, 2 016 in all; only a scan adds one;
wire entries never outnumber the memoized records; a repeated scan returns
the same objects, equal to what the uncached ``evaluate_point`` makes; the
writers give the same bytes for a memoized record as for an equal fresh
one; and a parse through the memo gives what the rebuild path gives, a
record with the same bits or an error with the same type, code and
message, however one cell of a grid record's CSV or JSON, or only the text
of one CSV cell, is edited.
"""

import csv
import dataclasses
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
_MEMOS = (*_GRID_RECORDS.values(), report._WIRE, report._WIRE_ROWS)


def _memo_size() -> int:
    return sum(map(len, _GRID_RECORDS.values()))


def _wire_size() -> int:
    """Wire entries, after checking that the CSV text index holds no record
    without one."""
    entries = {id(entry.rec) for entry in report._WIRE.values()}
    assert {id(rec) for rec in report._WIRE_ROWS.values()} <= entries
    return len(report._WIRE)


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
        # an equal record that is not the memoized object gets no wire entry
        equal = evaluate_point(3, 1, Scheme.M_EQUALS_ONE)
        for records in ([explicit], [equal]):
            assert parse_records_csv(render_records_csv(records)) == records
            assert parse_records_json(render_records_json(records)) == records
        assert _memo_size() == 1 and _wire_size() == 1
        assert id(explicit) not in report._WIRE and id(equal) not in report._WIRE
        assert parse_records_json(render_records_json(scanned))[0] is scanned[0]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_a_repeated_scan_returns_the_same_objects(self, scheme):
        first = scan(DS, NS, scheme)
        again = scan(reversed(DS), list(NS) * 2, scheme)
        assert len(again) == len(first) == len(DS) * len(NS)
        assert all(a is b for a, b in zip(first, again))
        for rec in first:
            assert rec == evaluate_point(rec.params.D, rec.params.n, scheme)

    @pytest.mark.parametrize("loops", ["render", "parse", "both"])
    def test_wire_entries_stay_within_the_grid_memo(self, empty_memo, loops):
        grids = [scan(DS, NS, scheme) for scheme in SCHEMES]
        # texts from equal records the memo does not hold, so that writing
        # them makes no entry and only the parse loops do
        texts = [
            (render_records_csv(fresh), render_records_json(fresh))
            for fresh in (
                [evaluate_point(r.params.D, r.params.n, scheme) for r in records]
                for scheme, records in zip(SCHEMES, grids)
            )
        ]
        assert _wire_size() == 0
        for _ in range(3):
            for records, (csv_text, json_text) in zip(grids, texts):
                if loops in ("render", "both"):
                    render_records_csv(records)
                    render_records_json(records)
                if loops in ("parse", "both"):
                    assert parse_records_csv(csv_text) == records
                    assert parse_records_json(json_text) == records
                assert 0 < _wire_size() <= _memo_size() == 2016


# -- wire entries --------------------------------------------------------------


class TestWireEntries:
    def test_an_mn_only_process_reads_every_row_back_as_its_record(self, empty_memo):
        # at n = 1 a row without paper_E0 reads m1; no m1 scan has run, and
        # the mn record there, which the table gives no energy, serves
        records = scan(DS, NS, Scheme.M_EQUALS_N)
        assert any(rec.params.n == 1 and rec.paper_value is None for rec in records)
        for parse, text in (
            (parse_records_csv, render_records_csv(records)),
            (parse_records_json, render_records_json(records)),
        ):
            assert all(a is b for a, b in zip(parse(text), records, strict=True))
            # the converted fields' lookup alone, without the CSV text match
            with mock.patch.object(report, "_WIRE_ROWS", {}):
                assert all(a is b for a, b in zip(parse(text), records, strict=True))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_written_grid_row_is_matched_as_text(self, scheme):
        records = scan(DS, NS, scheme)
        text = render_records_csv(records)
        # the converted fields' lookup switched off: only a text match
        # returns the memoized record
        with mock.patch.object(report, "_memoized_record", lambda f: None):
            parsed = parse_records_csv(text)
        # at n = 1 a point without a published energy has one text under
        # both schemes, and either scheme's record may answer it
        for got, rec in zip(parsed, records, strict=True):
            key = (rec.params.D, rec.params.n)
            assert any(got is memo.get(key) for memo in _GRID_RECORDS.values()) and got == rec
            assert got is rec or (rec.params.n == 1 and rec.paper_value is None)
        assert _result(parse_records_csv, text) == _rebuild_result(parse_records_csv, text)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_writers_give_a_memoized_record_the_bytes_of_a_fresh_one(self, scheme):
        for rec in scan(DS, NS, scheme):
            fresh = evaluate_point(rec.params.D, rec.params.n, scheme)
            assert fresh == rec and fresh is not rec
            assert render_records_csv([rec]) == render_records_csv([fresh])
            assert render_records_json([rec]) == render_records_json([fresh])
            assert report._WIRE[id(rec)].rec is rec and id(fresh) not in report._WIRE

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_an_equal_record_writes_its_own_zero_sign(self, scheme):
        (rec,) = scan([3], [1], scheme)
        assert rec.alpha.lnmag == 0.0
        render_records_csv([rec])  # the memoized record's entry exists
        signed = dataclasses.replace(rec, alpha=SignedLogReal(1, -0.0))
        assert signed == rec
        csv_row = render_records_csv([signed]).splitlines()[1].split(",")
        assert csv_row[CSV_COLUMNS.index("alpha_lnmag")] == "-0.0"
        assert '"alpha_lnmag": -0.0' in render_records_json([signed])
        assert '"alpha_lnmag": 0.0' in render_records_json([rec])
        assert id(signed) not in report._WIRE


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
    """``_result`` with the memo lookups switched off, on converted fields and
    on CSV text: every row is rebuilt."""
    with mock.patch.object(report, "_memoized_record", lambda f: None):
        with mock.patch.object(report, "_WIRE_ROWS", {}):
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
# edits of one CSV cell's text that keep or change what it converts to:
# 3 as +3, " 3" or 3e0, 0.5 as 0.50, 0 as -0
TEXT_EDITS = {
    "plus": lambda cell: "+" + cell,
    "space": lambda cell: " " + cell,
    "trailing-zero": lambda cell: cell + "0" if "." in cell and "e" not in cell else cell + ".0",
    "exponent": lambda cell: cell + "e0",
    "negative-zero": lambda cell: "-" + cell,
}


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

    @given(
        point=_POINTS,
        scheme=st.sampled_from(SCHEMES),
        edit=st.sampled_from(sorted(TEXT_EDITS)),
        col=st.sampled_from(CSV_COLUMNS),
    )
    @settings(max_examples=400, deadline=None)
    def test_one_edited_cell_text(self, point, scheme, edit, col):
        D, n = point
        (rec,) = scan([D], [n], scheme)
        # writing the record makes its entry, so its own text is matched
        written = render_records_csv([rec]).splitlines()[1]
        cells = dict(zip(CSV_COLUMNS, next(csv.reader([written]))))
        if edit == "negative-zero":
            zeros = [c for c, cell in cells.items() if cell in ("0", "0.0")]
            col = zeros[0] if zeros else col
        cells[col] = TEXT_EDITS[edit](cells[col])
        text = _csv_text(list(cells.values()))
        assert _result(parse_records_csv, text) == _rebuild_result(parse_records_csv, text)

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
