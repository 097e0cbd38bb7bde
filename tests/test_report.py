import json
import math

import pytest

from dimspec import (
    CSV_HEADER,
    Classification,
    InvalidParameterError,
    Scheme,
    oracle_equivalence_report,
    parse_records_csv,
    parse_records_json,
    render_records_csv,
    render_records_json,
    scan,
    sort_records,
    table1_compare,
)


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

    @pytest.mark.parametrize("column,cell", [("D", "x"), ("beta", ""), ("E0_lnmag", "x")])
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
        ],
    )
    def test_json_malformed_input_rejected(self, text):
        with pytest.raises(InvalidParameterError):
            parse_records_json(text)

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
