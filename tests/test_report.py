import csv
import io
import json
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimspec import (
    CSV_HEADER,
    Classification,
    DimspecError,
    EnergyOutcome,
    InvalidParameterError,
    Scheme,
    SignedLogReal,
    SystemParams,
    e0_general,
    oracle_equivalence_report,
    parse_records_csv,
    parse_records_json,
    render_records_csv,
    render_records_json,
    scan,
    sort_records,
    table1_compare,
)
from dimspec import feasibility
from dimspec.feasibility import _GRID_RECORDS, build_record
from dimspec.report import CSV_COLUMNS, record_fields, render_csv, render_json


class TestTable1Compare:
    def test_ten_rows_all_bound(self):
        rows = table1_compare()
        assert len(rows) == 10
        assert all(r.computed_E0.is_bound for r in rows)

    def test_sorted_by_n_then_D(self):
        keys = [(r.n, r.D) for r in table1_compare()]
        assert keys == sorted(keys)

    def test_anchor_row_matches_at_printed_precision(self):
        row = next(r for r in table1_compare() if (r.D, r.n) == (3, 1))
        computed = row.computed_E0.energy.to_float()
        assert abs(computed - (-0.11)) / 0.11 <= 2e-2
        assert abs(row.ratio_log10) < 0.01

    def test_every_ratio_is_finite(self):
        for row in table1_compare():
            assert row.ratio_log10 is not None
            assert math.isfinite(row.ratio_log10)

    def test_extreme_row_reported_not_asserted(self):
        row = next(r for r in table1_compare() if (r.D, r.n) == (19, 5))
        # computed and published disagree by tens of decades; the report
        # carries the gap instead of claiming agreement
        assert row.ratio_log10 < -30


class TestSerialization:
    def test_header_is_bit_exact(self):
        assert CSV_HEADER == (
            "D,n,m,beta,alpha_sign,alpha_lnmag,E0_sign,E0_lnmag,E0_decimal,"
            "classification,formula,paper_E0,ratio_log10"
        )
        text = render_records_csv([])
        assert text.splitlines()[0] == CSV_HEADER

    def test_csv_round_trip_mn(self):
        records = scan(range(3, 14), range(1, 7), Scheme.M_EQUALS_N)
        parsed = parse_records_csv(render_records_csv(records))
        assert parsed == records

    def test_csv_round_trip_m1(self):
        records = scan(range(3, 10), range(1, 7), Scheme.M_EQUALS_ONE)
        parsed = parse_records_csv(render_records_csv(records))
        assert parsed == records

    def test_json_round_trip(self):
        records = scan(range(3, 14), range(1, 7), Scheme.M_EQUALS_N)
        parsed = parse_records_json(render_records_json(records))
        assert parsed == records

    def test_non_applicable_cells_are_empty(self):
        records = scan([4, 6, 3], [1, 3], Scheme.M_EQUALS_N)
        lines = render_records_csv(sort_records(records)).splitlines()
        rows = {tuple(line.split(",")[:2]): line.split(",") for line in lines[1:]}
        divergent = rows[("4", "1")]
        assert divergent[9] == "divergent"
        assert divergent[6] == divergent[7] == divergent[8] == ""  # no E0 fields
        assert divergent[4] != ""  # alpha exists at the divergent boundary
        logarithmic = rows[("6", "3")]
        assert logarithmic[9] == "logarithmic"
        assert logarithmic[4] == logarithmic[5] == ""  # no coupling at beta = 0
        invalid = rows[("3", "3")]
        assert invalid[9] == "invalid"
        assert int(invalid[3]) == -3  # beta column keeps the short-range value

    def test_invalid_outcome_reason_survives_round_trip(self):
        records = scan([3], [3], Scheme.M_EQUALS_N)
        (rec,) = records
        assert rec.outcome.classification is Classification.INVALID
        (parsed,) = parse_records_csv(render_records_csv(records))
        assert parsed.outcome == rec.outcome
        assert parsed.outcome.reason_code == "short-range"

    def test_reference_cell_uses_table_constant(self):
        records = scan([3], [1], Scheme.M_EQUALS_N)
        line = render_records_csv(records).splitlines()[1]
        assert line.split(",")[11] == "-0.11"

    def test_bad_header_rejected(self):
        with pytest.raises(InvalidParameterError):
            parse_records_csv("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize(
        "column,cell", [("D", "x"), ("beta", ""), ("E0_lnmag", "x"), ("alpha_sign", "2")]
    )
    def test_csv_unreadable_cell_is_unparseable(self, column, cell):
        header, row = render_records_csv(scan([3], [1], Scheme.M_EQUALS_N)).splitlines()
        cells = row.split(",")
        cells[header.split(",").index(column)] = cell
        with pytest.raises(InvalidParameterError, match=repr(column)) as err:
            parse_records_csv(header + "\n" + ",".join(cells) + "\n")
        assert err.value.code == "unparseable"

    def test_csv_short_row_rejected(self):
        with pytest.raises(InvalidParameterError):
            parse_records_csv(CSV_HEADER + "\n3,1\n")

    # the csv reader raises csv.Error on a cell past its field limit, quoted
    # or not, and on a carriage return inside an unquoted cell
    @pytest.mark.parametrize(
        "text,code",
        [
            pytest.param(
                "D" * (csv.field_size_limit() + 1) + "\n", "bad-header", id="header-cell-too-long"
            ),
            pytest.param(
                CSV_HEADER + "\n" + "3" * (csv.field_size_limit() + 1) + "\n", "unparseable",
                id="row-cell-too-long",
            ),
            pytest.param(
                CSV_HEADER + '\n"' + "x" * (csv.field_size_limit() + 1) + '"\n', "unparseable",
                id="row-quoted-cell-too-long",
            ),
            pytest.param("D\rn\n", "bad-header", id="header-carriage-return"),
            pytest.param(CSV_HEADER + "\n3\r1\n", "unparseable", id="row-carriage-return"),
        ],
    )
    def test_csv_the_reader_cannot_split_is_rejected(self, text, code):
        with pytest.raises(InvalidParameterError) as err:
            parse_records_csv(text)
        assert err.value.code == code

    @pytest.mark.parametrize("field", ["D", "beta", "E0_lnmag", "classification", "paper_E0"])
    def test_json_missing_field_is_unparseable(self, field):
        payload = json.loads(render_records_json(scan([3], [1], Scheme.M_EQUALS_N)))
        del payload[0][field]
        with pytest.raises(InvalidParameterError, match=repr(field)) as err:
            parse_records_json(json.dumps(payload))
        assert err.value.code == "unparseable"

    @pytest.mark.parametrize(
        "text",
        [
            "[{}]",
            "[1]",
            "{",
            '[{"D": 3, "n": 1, "m": 1, "beta": 1, "alpha_sign": 1, "alpha_lnmag": 0.0, '
            '"classification": "nope"}]',
        ]
        + [
            # formula tags that no evaluation route produces
            pytest.param(
                render_records_json(scan([3], [1], Scheme.M_EQUALS_N)).replace(
                    '"Eq2"', f'"{tag}"'
                ),
                id=f"formula-{tag}",
            )
            for tag in ("OracleVeff", "Eq6")
        ]
        + [
            # a classification that contradicts classify_coupling
            pytest.param(
                render_records_json(scan([3], [1], Scheme.M_EQUALS_N)).replace(
                    '"bound"', '"singular"'
                ),
                id="bound-relabelled-singular",
            )
        ]
        + [
            # a coupling sign that is not an int, though it compares equal to 1
            pytest.param(
                render_records_json(scan([3], [1], Scheme.M_EQUALS_N)).replace(
                    '"alpha_sign": 1,', f'"alpha_sign": {sign},'
                ),
                id=f"alpha-sign-{sign}",
            )
            for sign in ("true", "1.0")
        ]
        + [
            # cells that compare equal to what the writer writes, but are of
            # another type: a float sign and an int lnmag
            pytest.param(
                render_records_json(scan([3], [1], Scheme.M_EQUALS_N)).replace(old, new),
                id=case,
            )
            for case, old, new in (
                ("E0-sign-float", '"E0_sign": -1,', '"E0_sign": -1.0,'),
                ("alpha-lnmag-int", '"alpha_lnmag": 0.0,', '"alpha_lnmag": 0,'),
            )
        ],
    )
    def test_json_malformed_input_rejected(self, text):
        with pytest.raises(InvalidParameterError):
            parse_records_json(text)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("[" * 100_000 + "]" * 100_000, id="nested-arrays"),
            pytest.param('{"a": ' * 50_000 + "1" + "}" * 50_000, id="nested-objects"),
        ],
    )
    def test_json_nested_past_the_recursion_limit_is_bad_json(self, text):
        with pytest.raises(InvalidParameterError) as err:
            parse_records_json(text)
        assert err.value.code == "bad-json"

    def test_json_top_level_object_is_bad_json(self):
        with pytest.raises(InvalidParameterError) as err:
            parse_records_json('{"a": 1}')
        assert err.value.code == "bad-json"
        assert str(err.value) == "expected a top-level JSON array"

    @pytest.mark.parametrize(
        "text,shown", [("[1]", "1"), ("[null]", "None"), ('["x"]', "'x'"), ("[[1]]", "[1]")]
    )
    def test_json_entry_that_is_not_an_object_is_unparseable(self, text, shown):
        with pytest.raises(InvalidParameterError) as err:
            parse_records_json(text)
        assert err.value.code == "unparseable"
        assert str(err.value) == f"JSON array entry 0 is not an object, got {shown}"

    def test_json_entry_after_a_valid_object_is_named_by_its_index(self):
        payload = json.loads(render_records_json(scan([3], [1], Scheme.M_EQUALS_N))) + [1]
        with pytest.raises(InvalidParameterError) as err:
            parse_records_json(json.dumps(payload))
        assert err.value.code == "unparseable"
        assert str(err.value) == "JSON array entry 1 is not an object, got 1"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "point,column,value",
        [
            ((3, 1), "E0_decimal", "+5.00e+10"),
            ((3, 1), "E0_lnmag", -2.0),
            ((3, 1), "ratio_log10", 0.5),
            # a point the reference table does not list
            ((5, 2), "paper_E0", -0.11),
        ],
        ids=["E0_decimal", "E0_lnmag", "ratio_log10", "paper_E0"],
    )
    def test_cell_its_inputs_do_not_give_is_unparseable(self, fmt, point, column, value):
        records = scan([point[0]], [point[1]], Scheme.M_EQUALS_N)
        if fmt == "json":
            payload = json.loads(render_records_json(records))
            payload[0][column] = value
            parse, text = parse_records_json, json.dumps(payload)
        else:
            header, row = render_records_csv(records).splitlines()
            cells = row.split(",")
            cells[header.split(",").index(column)] = str(value)
            parse, text = parse_records_csv, header + "\n" + ",".join(cells) + "\n"
        with pytest.raises(InvalidParameterError, match=repr(column)) as err:
            parse(text)
        assert err.value.code == "unparseable"

    def test_json_extra_field_is_unparseable(self):
        payload = json.loads(render_records_json(scan([3], [1], Scheme.M_EQUALS_N)))
        payload[0]["E0"] = -0.11
        with pytest.raises(InvalidParameterError, match="'E0'") as err:
            parse_records_json(json.dumps(payload))
        assert err.value.code == "unparseable"

    @pytest.mark.parametrize("beta", ["x", 1.5, None, True])
    def test_json_non_integer_beta_is_unparseable(self, beta):
        payload = json.loads(render_records_json(scan([3], [1], Scheme.M_EQUALS_N)))
        payload[0]["beta"] = beta
        with pytest.raises(InvalidParameterError, match="beta") as err:
            parse_records_json(json.dumps(payload))
        assert err.value.code == "unparseable"

    def test_json_is_flat_array_of_objects(self):
        records = scan([3], [1], Scheme.M_EQUALS_N)
        payload = json.loads(render_records_json(records))
        assert isinstance(payload, list) and len(payload) == 1
        entry = payload[0]
        assert entry["D"] == 3 and entry["classification"] == "bound"
        assert entry["alpha_sign"] == 1 and isinstance(entry["alpha_lnmag"], float)
        assert entry["formula"] == "Eq2"

    def test_sort_records(self):
        records = scan(range(3, 12), [3, 1], Scheme.M_EQUALS_N)
        ordered = sort_records(records)
        keys = [(r.params.n, r.params.D) for r in ordered]
        assert keys == sorted(keys)


# a rendered scan table of both schemes, with bound, divergent, logarithmic,
# invalid and reference rows, for the parsers to meet with hostile cells
_TABLE = sort_records(
    scan(range(2, 13), range(1, 4), Scheme.M_EQUALS_N)
    + scan(range(2, 13), range(1, 4), Scheme.M_EQUALS_ONE)
)
_TABLE_CSV = list(csv.reader(io.StringIO(render_records_csv(_TABLE))))
_TABLE_JSON = json.loads(render_records_json(_TABLE))

# tokens written in place of a cell, as they appear in the text: non-finite
# and out-of-range floats, booleans, containers, huge ints (past the 4300-digit
# int conversion limit too), signed zero, subnormals, strings where numbers go
_HOSTILE = (
    "nan", "NaN", "inf", "-inf", "Infinity", "-Infinity", "1e309", "-1e309",
    "True", "true", "false", "null", "None", "[]", "{}", "[1]", '{"a": 1}',
    "9" * 5000, "-" + "9" * 40, "-0.0", "-0", "0", "5e-324", "1e-400", "1.0",
    "2.5", "-1", "3", '"1"', '"nan"', '""', "", "x", "Eq2", "bound",
)
_CELL_EDITS = st.lists(
    st.tuples(
        st.integers(0, len(_TABLE) - 1),
        st.sampled_from(CSV_COLUMNS),
        st.sampled_from(_HOSTILE),
    ),
    min_size=1,
    max_size=3,
)


def _parse_or_classified_error(parse, text):
    # any error other than a DimspecError escapes and fails the test
    try:
        parse(text)
    except DimspecError:
        pass


class TestHostileCells:
    @given(edits=_CELL_EDITS)
    @settings(max_examples=150, deadline=None)
    def test_csv_cells(self, edits):
        rows = [list(row) for row in _TABLE_CSV]
        for row, col, token in edits:
            rows[1 + row][CSV_COLUMNS.index(col)] = token
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        _parse_or_classified_error(parse_records_csv, buf.getvalue())

    @given(edits=_CELL_EDITS)
    @settings(max_examples=150, deadline=None)
    def test_json_cells(self, edits):
        entries = [dict(entry) for entry in _TABLE_JSON]
        for i, (row, col, _) in enumerate(edits):
            entries[row][col] = f"@hostile-{i}@"
        text = json.dumps(entries)
        for i, (_, _, token) in enumerate(edits):
            text = text.replace(f'"@hostile-{i}@"', token)
        _parse_or_classified_error(parse_records_json, text)


def _grid_rows():
    records = scan(range(2, 65), range(1, 17), Scheme.M_EQUALS_N)
    records += scan(range(2, 65), range(1, 17), Scheme.M_EQUALS_ONE)
    assert len(records) == 2016
    return [record_fields(rec) for rec in sort_records(records)]


def _explicit_rows():
    """Explicit-coupling records whose cells are null: beta < 0, beta = 0,
    a repulsive and a zero coupling, next to a bound one."""
    params = SystemParams(5, 2, 1)
    half = SignedLogReal.from_float(0.5)
    records = [
        build_record(params, -1, half, reference=False),
        build_record(params, 0, half, reference=False),
        build_record(params, 3, SignedLogReal.from_float(-0.5), reference=False),
        build_record(params, 3, None, reference=False),
        build_record(params, 3, half, reference=False),
    ]
    tags = [rec.outcome.classification.value for rec in records]
    assert tags == ["invalid", "logarithmic", "repulsive", "repulsive", "bound"]
    return [record_fields(rec) for rec in records]


def _table1_rows():
    # the shape of the table1 verb's rows
    return [
        {
            "D": r.D,
            "n": r.n,
            "computed_E0_decimal": r.computed_E0.energy.to_decimal(),
            "computed_E0_lnmag": r.computed_E0.energy.lnmag,
            "paper_E0": r.paper_E0,
            "ratio": r.ratio.to_float(),
            "ratio_log10": r.ratio_log10,
        }
        for r in table1_compare()
    ]


def _reference_csv(rows, columns):
    """The per-cell rule the CSV writer keeps: None empty, a float by repr,
    anything else by str."""
    def cell(value):
        if value is None:
            return ""
        return repr(value) if isinstance(value, float) else str(value)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([cell(row[col]) for col in columns] for row in rows)
    return buf.getvalue()


class TestWriterBytes:
    """The writers are pinned to the bytes of the plain stdlib calls."""

    @pytest.mark.parametrize(
        "rows_of",
        [
            _grid_rows,
            _explicit_rows,
            _table1_rows,
            lambda: _explicit_rows()[-1:],
            list,
            lambda: [{}],
            lambda: [{"a": [1, 2]}],
            lambda: [{"a": {"b": None}}],
            lambda: [1, "x"],
        ],
        ids=[
            "grid",
            "explicit",
            "table1",
            "one-row",
            "empty",
            "empty-object",
            "nested-list",
            "nested-object",
            "not-objects",
        ],
    )
    def test_json_array_matches_indent_2(self, rows_of):
        rows = rows_of()
        assert render_json(rows) == json.dumps(rows, indent=2)

    def test_json_array_boundary_inside_a_string(self):
        # an escaped string never holds a raw newline, so a string that reads
        # like a record boundary stays inside its record
        rows = [{"a": "},\n    {", "b": None, "c": True}, {"a": "\u00e9\"", "b": 1e-300, "c": 0}]
        assert render_json(rows) == json.dumps(rows, indent=2)

    def test_json_object_matches_indent_2(self):
        obj = {"n": 3, "members": [7, 8, 9], "paper_omitted": [], "nested": {"x": None}}
        assert render_json(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize(
        "rows_of", [_grid_rows, _explicit_rows, _table1_rows, list],
        ids=["grid", "explicit", "table1", "empty"],
    )
    def test_csv_matches_cell_rule(self, rows_of):
        rows = rows_of()
        columns = list(rows[0]) if rows else CSV_COLUMNS
        assert render_csv(rows, columns) == _reference_csv(rows, columns)

    def test_csv_mixed_cells(self):
        rows = [
            {"a": None, "b": 1.0, "c": "x,y", "d": True, "e": 10**30},
            {"a": "", "b": -0.0, "c": 'say "hi"', "d": False, "e": -3},
        ]
        columns = ["a", "b", "c", "d", "e"]
        assert render_csv(rows, columns) == _reference_csv(rows, columns)

    def test_csv_one_column(self):
        rows = [{"a": None, "b": 1}, {"a": "x,y", "b": 2}, {"a": 2.5, "b": 3}, {"a": "", "b": 4}]
        assert render_csv(rows, ["a"]) == _reference_csv(rows, ["a"])
        assert render_csv(rows, ["a"]) == 'a\n""\n"x,y"\n2.5\n""\n'


class TestOracleEquivalenceReport:
    def test_small_sweep(self):
        report = oracle_equivalence_report(max_n=3, max_D=12)
        assert len(report.points) >= 10
        assert report.max_lnmag_deviation <= 1e-8
        assert report.max_r_star_deviation <= 1e-9

    def test_names_its_worst_points(self):
        report = oracle_equivalence_report(max_n=3, max_D=12)
        assert report.worst_lnmag in report.points and report.worst_r_star in report.points
        assert report.max_lnmag_deviation == max(p.lnmag_deviation for p in report.points)
        assert report.max_r_star_deviation == max(p.r_star_deviation for p in report.points)

    def test_empty_sweep_rejected(self):
        with pytest.raises(InvalidParameterError):
            oracle_equivalence_report(max_n=3, max_D=2)

    def test_r_star_is_measured_against_the_closed_form(self, empty_memo, monkeypatch):
        # a closed form 1e-6 off in ln|E| places r* off by 1e-6 / beta in ln r,
        # which the search, untouched, does not follow. The sweep takes each
        # closed form from the point's grid record, so the shift goes where
        # records are made, under a memo emptied for this test
        def shifted(query):
            outcome = e0_general(query)
            return EnergyOutcome.bound(SignedLogReal(-1, outcome.energy.lnmag + 1e-6))

        monkeypatch.setattr("dimspec.feasibility.e0_general", shifted)
        assert oracle_equivalence_report(5, 20).max_r_star_deviation > 1e-9

    @staticmethod
    def _memoized() -> dict:
        return {
            (scheme, D, n): rec
            for scheme, memo in _GRID_RECORDS.items()
            for (D, n), rec in memo.items()
        }

    def test_the_sweep_reads_each_point_from_the_grid_memo(self, empty_memo):
        # from an empty memo the sweep leaves exactly its points' records
        # there; a second sweep reads them, evaluating no closed form
        report = oracle_equivalence_report(3, 12)
        memoized = self._memoized()
        assert set(memoized) == {(p.scheme, p.D, p.n) for p in report.points}
        with mock.patch.object(feasibility, "e0_general", wraps=e0_general) as closed:
            again = oracle_equivalence_report(3, 12)
        assert closed.call_count == 0 and again == report
        after = self._memoized()
        assert after.keys() == memoized.keys()
        assert all(after[key] is rec for key, rec in memoized.items())
