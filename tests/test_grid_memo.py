"""The grid memo: ``scan`` makes the record of each grid point once per
process, each format's writer in ``report`` keeps its own text of each
memoized record it writes, the CSV line or the JSON object, and both
parsers return the memoized records for a document that is exactly their
texts joined; any other document takes the rebuild path and returns fresh
records.

These tests pin what the memo must not change or outgrow: it holds at most
one record per grid point and scheme, 2 016 in all; only a scan adds one;
only a format's writer adds a text of that format, and only for a memoized
record, and each format's index holds its texts and nothing else; a write
of one format cuts no text of the other; a repeated scan returns the same
objects, equal to what the uncached ``evaluate_point`` makes; the writers
give any list, memoized records or not, the bytes of the plain writers; and
the whole-text path gives what the rebuild path gives, a record with the
same bits or an error with the same type, code and message, however one
cell of a grid record's CSV or JSON, only the text of one CSV cell, or a
whole document's lines are edited.
"""

import csv
import dataclasses
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
FORMATS = ((render_records_csv, parse_records_csv), (render_records_json, parse_records_json))


def _memo_size() -> int:
    return sum(map(len, _GRID_RECORDS.values()))


# each format's texts, keyed by id(rec), and its index from text to record
WIRE_MAPS = ((report._CSV_TEXT, report._CSV_ROWS), (report._JSON_TEXT, report._JSON_ROWS))


def _wire_size() -> int:
    """Records with a wire text in either format, after checking that each
    format's index holds exactly that format's texts, each naming a record
    with that text, and that no record the grid memo does not hold has a
    text. At n = 1 the mn and m1 records without a published energy have the
    same texts, so two records may share a key."""
    memo_ids = {id(rec) for memo in _GRID_RECORDS.values() for rec in memo.values()}
    for texts, index in WIRE_MAPS:
        assert set(index) == set(texts.values())
        assert all(texts[id(rec)] == text for text, rec in index.items())
        assert len(index) <= len(texts) and set(texts) <= memo_ids
    return len(report._CSV_TEXT.keys() | report._JSON_TEXT.keys())


def _no_text_index():
    """Both formats' text indexes emptied for a ``with`` block, so every
    document takes the rebuild path."""
    return mock.patch.multiple(report, _CSV_ROWS={}, _JSON_ROWS={})


class TestMemoBound:
    def test_three_whole_grid_scans_fill_exactly_the_grid(self):
        for _ in range(3):
            for scheme in SCHEMES:
                records = scan(DS, NS, scheme)
                assert parse_records_csv(render_records_csv(records)) == records
                assert parse_records_json(render_records_json(records)) == records
        assert _memo_size() == len(DS) * len(NS) * len(SCHEMES) == 2016
        assert _wire_size() <= 2016
        assert len(report._CSV_ROWS) <= 2016 and len(report._JSON_ROWS) <= 2016

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
        (scanned,) = scan([3], [1], Scheme.M_EQUALS_ONE)
        # an equal record that is not the memoized object writes the memoized
        # record's texts but gets no wire text; parsing them adds none
        equal = evaluate_point(3, 1, Scheme.M_EQUALS_ONE)
        for records in ([explicit], [unscanned], [equal], [scanned], [equal]):
            for render, parse in FORMATS:
                text = render(records)
                size = _wire_size()
                assert parse(text) == records and _wire_size() == size
        assert _memo_size() == 1 and _wire_size() == 1
        assert all(id(scanned) in texts for texts, _ in WIRE_MAPS)
        for render, parse in FORMATS:
            assert parse(render([equal]))[0] is scanned

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
        # them makes no wire text and only the render loops do
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
                if loops == "parse":
                    assert _wire_size() == 0
                else:
                    assert 0 < _wire_size() <= _memo_size() == 2016
                assert len(report._CSV_ROWS) <= 2016 and len(report._JSON_ROWS) <= 2016


# -- wire texts ----------------------------------------------------------------


class TestWireEntries:
    def test_an_mn_only_process_reads_every_row_back_as_its_record(self, empty_memo):
        # at n = 1 a row without paper_E0 reads m1 when rebuilt; no m1 scan
        # has run, and the mn record's text, which the table gives no
        # energy, answers it
        records = scan(DS, NS, Scheme.M_EQUALS_N)
        assert any(rec.params.n == 1 and rec.paper_value is None for rec in records)
        for render, parse in FORMATS:
            text = render(records)
            assert all(a is b for a, b in zip(parse(text), records, strict=True))
            # without the whole-text match every row is rebuilt: equal records,
            # none of them the memo's
            with _no_text_index():
                parsed = parse(text)
            assert parsed == records and not any(map(_memoized, parsed))

    def test_the_first_write_cuts_every_entry_from_one_call_of_each_writer(self, empty_memo):
        records = [rec for scheme in SCHEMES for rec in scan(DS, NS, scheme)]
        with mock.patch.object(
            report, "_render_cells", wraps=report._render_cells
        ) as cells, mock.patch.object(report, "render_json", wraps=report.render_json) as dumps:
            csv_text = render_records_csv(records)
            json_text = render_records_json(records)
        assert cells.call_count == dumps.call_count == 1
        assert _wire_size() == len(records) == 2016
        assert csv_text == report._render_cells(CSV_COLUMNS, map(report._record_row, records))
        assert json_text == json.dumps([record_fields(rec) for rec in records], indent=2)

    def test_a_write_cuts_only_its_own_formats_texts(self, empty_memo):
        records = [rec for scheme in SCHEMES for rec in scan(DS, NS, scheme)]
        with mock.patch.object(report, "render_json", wraps=report.render_json) as dumps:
            render_records_csv(records)
        assert dumps.call_count == 0
        assert len(report._CSV_TEXT) == 2016 and not report._JSON_TEXT and not report._JSON_ROWS
        csv_maps = dict(report._CSV_TEXT), dict(report._CSV_ROWS)
        with mock.patch.object(
            report, "_render_cells", wraps=report._render_cells
        ) as cells, mock.patch.object(report, "render_json", wraps=report.render_json) as dumps:
            json_text = render_records_json(records)
        assert cells.call_count == 0 and dumps.call_count == 1
        assert (report._CSV_TEXT, report._CSV_ROWS) == csv_maps
        assert len(report._JSON_TEXT) == 2016 and _wire_size() == 2016
        assert json_text == json.dumps([record_fields(rec) for rec in records], indent=2)

    def test_a_text_of_one_format_answers_only_its_own_parser(self, empty_memo):
        # each format keys its own index, so a memoized record's CSV line in
        # the JSON frame, or its JSON body under the CSV header, is read by
        # the rebuild path and rejected, never taken for the record
        (rec,) = scan([7], [3], Scheme.M_EQUALS_N)
        render_records_csv([rec])
        render_records_json([rec])
        line, body = report._CSV_TEXT[id(rec)], report._JSON_TEXT[id(rec)]
        with pytest.raises(InvalidParameterError) as exc:
            parse_records_json("[\n  {" + line + "\n]")
        assert exc.value.code == "bad-json"
        with pytest.raises(InvalidParameterError) as exc:
            parse_records_csv(report.CSV_HEADER + "\n" + body + "\n")
        assert exc.value.code == "unparseable"

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_written_grid_row_is_matched_as_text(self, scheme):
        records = scan(DS, NS, scheme)
        text = render_records_csv(records)
        header, *lines = text.splitlines(keepends=True)
        # each written row alone under the header is a whole document the
        # text match answers: with its memoized record, or, at n = 1 without
        # a published energy, where both schemes' records have one text,
        # with either scheme's record
        for line, rec in zip(lines, records, strict=True):
            (got,) = parse_records_csv(header + line)
            assert _is_or_twin(got, rec)
            assert line == report._CSV_TEXT[id(rec)] + "\n"
        assert _result(parse_records_csv, text) == _rebuild_result(parse_records_csv, text)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_writers_give_a_memoized_record_the_bytes_of_a_fresh_one(self, scheme):
        for rec in scan(DS, NS, scheme):
            fresh = evaluate_point(rec.params.D, rec.params.n, scheme)
            assert fresh == rec and fresh is not rec
            assert render_records_csv([rec]) == render_records_csv([fresh])
            assert render_records_json([rec]) == render_records_json([fresh])
            for texts, index in WIRE_MAPS:
                assert _is_or_twin(index[texts[id(rec)]], rec) and id(fresh) not in texts

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_an_equal_record_writes_its_own_zero_sign(self, scheme):
        (rec,) = scan([3], [1], scheme)
        assert rec.alpha.lnmag == 0.0
        for render, _ in FORMATS:  # the memoized record's texts exist
            render([rec])
        signed = dataclasses.replace(rec, alpha=SignedLogReal(1, -0.0))
        assert signed == rec
        csv_row = render_records_csv([signed]).splitlines()[1].split(",")
        assert csv_row[CSV_COLUMNS.index("alpha_lnmag")] == "-0.0"
        assert '"alpha_lnmag": -0.0' in render_records_json([signed])
        assert '"alpha_lnmag": 0.0' in render_records_json([rec])
        assert not any(id(signed) in texts for texts, _ in WIRE_MAPS)


# -- whole-text path against rebuild path --------------------------------------


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
    """``_result`` with the whole-text match switched off: every row is
    rebuilt."""
    with _no_text_index():
        return _result(parse, text)


def _memoized(rec) -> bool:
    """Whether ``rec`` is an object the grid memo holds."""
    key = (rec.params.D, rec.params.n)
    return any(rec is memo.get(key) for memo in _GRID_RECORDS.values())


def _csv_text(entry) -> str:
    """The CSV the one writer makes of one row holding ``entry``'s values in
    its order: None empty, a float by repr, anything else by str."""
    return report._render_cells(CSV_COLUMNS, [entry.values() if isinstance(entry, dict) else entry])


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


class TestWholeTextPathEqualsRebuildPath:
    @given(
        point=_POINTS,
        scheme=st.sampled_from(SCHEMES),
        edit=st.sampled_from(EDITS),
        data=st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_one_edited_cell(self, point, scheme, edit, data):
        D, n = point
        (rec,) = scan([D], [n], scheme)
        for render, _ in FORMATS:  # the memoized record's texts exist
            render([rec])
        entry = _edited(record_fields(rec), edit, data.draw)
        # in the writers' layout, which the whole-text match reads
        json_text, csv_text = json.dumps([entry], indent=2), _csv_text(entry)
        for parse, text in ((parse_records_json, json_text), (parse_records_csv, csv_text)):
            assert _result(parse, text) == _rebuild_result(parse, text)
            assert edit != "none" or _memoized(parse(text)[0])

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
        # writing the record makes its CSV text, so its own text is matched
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
        signed = dataclasses.replace(rec, alpha=SignedLogReal(1, -0.0))
        # the equal record's texts, with the memoized record's text made, so
        # the whole-text match is live and misses
        for render, parse in FORMATS:
            text = render([signed])
            assert text != render([rec])
            (parsed,) = parse(text)
            assert parsed == rec and not _memoized(parsed)
            assert math.copysign(1.0, parsed.alpha.lnmag) == -1.0
            assert [_record_bits(parsed)] == _rebuild_result(parse, text)


# -- whole documents -----------------------------------------------------------


def _csv_line(rec) -> str:
    return render_records_csv([rec]).split("\n")[1]


def _json_object(rec) -> str:
    return render_records_json([rec])[4:-2]


def _csv_doc(lines: list) -> str:
    return "".join(line + "\n" for line in [",".join(CSV_COLUMNS), *lines])


def _json_doc(objects: list) -> str:
    return "[\n  " + ",\n  ".join(objects) + "\n]" if objects else "[]"


# edits of a whole document; the first four keep it the joined texts of
# memoized records, every other one makes it a document that is not
LINE_EDITS = ("none", "drop", "duplicate", "swap")
CSV_EDITS = (*LINE_EDITS, "crlf", "final-newline", "blank-line", "quoted-cell", "leading-space")
JSON_EDITS = (*CSV_EDITS, "reindent", "compact", "csv-line")
FOREIGN = ("unscanned", "explicit", "negative-zero")


def _foreign_record(kind: str, scheme, draw):
    """A record no text of the memo names: one off the scan grid, one with
    an explicit coupling, or the (3, 1) record with a coupling lnmag of
    -0.0, which equals the memoized one."""
    if kind == "unscanned":
        D, n = draw(st.sampled_from([(D_MAX + 1, 1), (3, N_MAX + 1), (100, 2)]), label="point")
        return evaluate_point(D, n, scheme)
    if kind == "explicit":
        return build_record(SystemParams(3, 2, 1), 1, SignedLogReal(1, 0.5), False)
    (rec,) = scan([3], [1], scheme)
    return dataclasses.replace(rec, alpha=SignedLogReal(1, -0.0))


def _edited_document(records: list, fmt: str, edit: str, draw) -> str:
    """The document ``fmt`` writes for ``records``, with one edit to its
    lines (CSV rows or JSON objects) or to its whole text."""
    if edit in ("reindent", "compact"):
        indent = draw(st.sampled_from([1, 4])) if edit == "reindent" else None
        return json.dumps([record_fields(rec) for rec in records], indent=indent)
    text_of, doc = (_csv_line, _csv_doc) if fmt == "csv" else (_json_object, _json_doc)
    lines = [text_of(rec) for rec in records]
    at = draw(st.integers(0, max(len(lines) - 1, 0)), label="at")
    if edit in FOREIGN:
        line = text_of(_foreign_record(edit, draw(st.sampled_from(SCHEMES)), draw))
        lines[at : at + 1] = [line]
    elif edit == "csv-line":
        (rec,) = scan([3], [1], draw(st.sampled_from(SCHEMES)))
        lines[at : at + 1] = ["{" + _csv_line(rec) + draw(st.sampled_from(["", "}"]))]
    elif lines and edit == "drop":
        del lines[at]
    elif lines and edit == "duplicate":
        lines.insert(at, lines[at])
    elif lines and edit == "swap":
        other = draw(st.integers(0, len(lines) - 1), label="other")
        lines[at], lines[other] = lines[other], lines[at]
    elif lines and edit == "quoted-cell":
        lines[at] = lines[at].replace('"D": ', '"D": "', 1).replace(",", '",', 1)
        if fmt == "csv":
            lines[at] = '"' + lines[at]
    elif lines and edit == "leading-space":
        lines[at] = " " + lines[at]
    text = doc(lines)
    if edit == "crlf":
        return text.replace("\n", "\r\n")
    if edit == "final-newline":
        return text[:-1] if fmt == "csv" else text + "\n"
    if edit == "blank-line":
        # "[]", the empty JSON document, has no newline: append the blank line
        breaks = [i for i, c in enumerate(text) if c == "\n"] or [len(text)]
        cut = draw(st.sampled_from(breaks), label="blank")
        return text[:cut] + "\n" + text[cut:]
    return text


def _is_or_twin(got, rec) -> bool:
    """Whether ``got`` is ``rec``, or at n = 1 without a published energy,
    where both schemes' records have one text, the other scheme's record."""
    return got is rec or (
        rec.params.n == 1 and rec.paper_value is None and got == rec and _memoized(got)
    )


class TestWholeDocuments:
    @given(
        points=st.lists(st.tuples(_POINTS, st.sampled_from(SCHEMES)), max_size=40),
        fmt=st.sampled_from(["csv", "json"]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_an_edited_document_parses_as_the_rebuild_path_does(self, points, fmt, data):
        records = [scan([D], [n], scheme)[0] for (D, n), scheme in points]
        parse = parse_records_csv if fmt == "csv" else parse_records_json
        edit = data.draw(st.sampled_from((CSV_EDITS if fmt == "csv" else JSON_EDITS) + FOREIGN))
        text = _edited_document(records, fmt, edit, data.draw)
        result = _result(parse, text)
        assert result == _rebuild_result(parse, text)
        if edit == "none":
            assert text == (render_records_csv if fmt == "csv" else render_records_json)(records)
            assert all(map(_is_or_twin, parse(text), records))
        if isinstance(result, list):
            # the joined texts of memoized records take the whole-text path,
            # every other document the rebuild path
            assert all(_memoized(rec) == (edit in LINE_EDITS) for rec in parse(text))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_a_written_grid_is_matched_as_one_text(self, scheme):
        records = scan(DS, NS, scheme)
        for render, parse in FORMATS:
            text = render(records)
            # the rebuild path's readers may not run
            with mock.patch.object(report, "csv", None), mock.patch.object(report, "json", None):
                parsed = parse(text)
            assert len(parsed) == len(records) and all(map(_is_or_twin, parsed, records))
            assert _result(parse, text) == _rebuild_result(parse, text)

    def test_non_text_documents_keep_their_readers(self):
        records = scan([2, 3, 4], [1, 2], Scheme.M_EQUALS_N)
        text = render_records_json(records)
        for blob in (text.encode(), bytearray(text.encode())):
            # json.loads reads bytes, and each object is then rebuilt
            parsed = parse_records_json(blob)
            assert parsed == records and not any(map(_memoized, parsed))
        csv_text = render_records_csv(records)
        for blob in (csv_text.encode(), bytearray(csv_text.encode())):
            with pytest.raises(InvalidParameterError) as err:
                parse_records_csv(blob)
            assert err.value.code == "bad-header"
            assert str(err.value).startswith("expected CSV text, got ")


# records the writers may meet: memoized ones, equal fresh ones, the (3, 1)
# record with a -0.0 coupling lnmag and records with explicit couplings
def _writer_records(draw) -> list:
    kinds = st.sampled_from(["memo", "fresh", "negative-zero", "explicit"])
    out = []
    for kind, (D, n), scheme in draw(
        st.lists(st.tuples(kinds, _POINTS, st.sampled_from(SCHEMES)), max_size=12)
    ):
        if kind == "memo":
            out.append(scan([D], [n], scheme)[0])
        elif kind == "fresh":
            out.append(evaluate_point(D, n, scheme))
        elif kind == "negative-zero":
            out.append(_foreign_record("negative-zero", scheme, draw))
        else:
            beta = draw(st.integers(-1, 2 * n), label="beta")
            lnmag = draw(st.floats(-5.0, 5.0), label="lnmag")
            out.append(build_record(SystemParams(D, n, 1), beta, SignedLogReal(1, lnmag), False))
    return out


class TestWriterBytes:
    def _check(self, records):
        assert render_records_csv(records) == report._render_cells(
            CSV_COLUMNS, map(report._record_row, records)
        )
        assert render_records_json(records) == json.dumps(
            [record_fields(rec) for rec in records], indent=2
        )

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mixed_lists_write_the_plain_writers_bytes(self, data):
        self._check(_writer_records(data.draw))

    @pytest.mark.parametrize("write", [render_records_csv, render_records_json])
    def test_an_iterator_writes_its_lists_bytes(self, write):
        # the writers pass over their argument twice, first for the wire
        # texts; a one-shot iterator of a list that is not all memoized once
        # wrote the bare frame
        memo = scan([3, 5], [1], Scheme.M_EQUALS_N)
        for records in (
            [evaluate_point(3, 1, Scheme.M_EQUALS_N), evaluate_point(7, 3, Scheme.M_EQUALS_N)],
            [memo[0], evaluate_point(7, 3, Scheme.M_EQUALS_ONE), memo[1]],
            memo,
        ):
            assert write(iter(records)) == write(tuple(records)) == write(records)
            assert write(rec for rec in records) == write(records)

    def test_empty_single_and_published_lists(self, empty_memo):
        (published,) = scan([3], [1], Scheme.M_EQUALS_N)
        assert published.paper_value is not None
        (m1,) = scan([3], [1], Scheme.M_EQUALS_ONE)
        fresh = evaluate_point(7, 3, Scheme.M_EQUALS_N)
        # a list not all memoized falls back to the plain writers and makes
        # no text, not even for its memoized records; a record twice in a
        # list gets one text in each format
        for records, written in (
            ([], 0),
            ([published, fresh], 0),
            ([published, published], 1),
            ([published], 1),
            ([m1], 2),
            ([published, m1], 2),
        ):
            self._check(records)
            assert _wire_size() == written
