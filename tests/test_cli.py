import csv
import dataclasses
import hashlib
import io
import json
import re
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimspec import (
    TABLE1_E0,
    parse_records_csv,
    parse_records_json,
    render_records_csv,
    render_records_json,
)
from dimspec import cli
from dimspec.cli import _energy_record, build_parser, run_cli
from dimspec.oracle import RADIAL_EXCITATION_LIMIT


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """json.loads that rejects the non-standard NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


# one quick, successful argv per verb, without --format
_VERB_ARGVS = {
    "energy": ["--D", "3", "--n", "1"],
    "potential": ["--D", "7", "--m", "3"],
    "feasible": ["--n", "3", "--scheme", "m1"],
    "scan": ["--D", "2:12", "--n", "1:3"],
    "table1": [],
    "verify": ["--max-n", "2", "--max-D", "6"],
    "radial": ["--D", "3", "--alpha", "1"],
}


def _verb_parsers():
    return build_parser()._subparsers._group_actions[0].choices


def _format_choices(verb):
    """The --format choices the verb's parser accepts; None for a verb
    without the flag, which always writes text."""
    flag = next((a for a in _verb_parsers()[verb]._actions if a.dest == "format"), None)
    return tuple(flag.choices) if flag is not None else (None,)


_VERB_FORMATS = [(verb, fmt) for verb in _VERB_ARGVS for fmt in _format_choices(verb)]


def _verb_argv(verb, fmt):
    return [verb, *_VERB_ARGVS[verb], *(["--format", fmt] if fmt else [])]


class TestEnergy:
    def test_json_object_fields(self, capsys):
        code, out, _ = run(
            capsys, "energy", "--D", "3", "--n", "1", "--scheme", "mn",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["D"] == 3 and obj["n"] == 1 and obj["m"] == 1 and obj["beta"] == 1
        assert obj["alpha"] == pytest.approx(1.0)
        assert obj["E0"] == pytest.approx(-1.0 / 9.0, rel=1e-10)
        assert obj["classification"] == "bound"
        assert obj["formula"] == "Eq2"

    def test_explicit_coupling(self, capsys):
        code, out, _ = run(
            capsys, "energy", "--D", "3", "--n", "1", "--scheme", "explicit",
            "--alpha", "1.0", "--beta", "1", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["E0"] == pytest.approx(-1.0 / 9.0, rel=1e-10)

    def test_explicit_requires_coupling(self, capsys):
        code, _, err = run(
            capsys, "energy", "--D", "3", "--n", "1", "--scheme", "explicit"
        )
        assert code == 1
        assert "invalid parameters" in err

    @pytest.mark.parametrize("scheme", ["mn", "m1"])
    def test_alpha_needs_the_explicit_scheme(self, capsys, scheme):
        # mn and m1 derive the coupling; a given one was once ignored
        code, out, err = run(
            capsys, "energy", "--D", "3", "--n", "1", "--scheme", scheme, "--alpha", "5"
        )
        assert code == 1 and out == ""
        assert "dimspec: invalid parameters: --alpha needs scheme explicit" in err

    @pytest.mark.parametrize("scheme", ["mn", "m1"])
    def test_beta_needs_the_explicit_scheme(self, capsys, scheme):
        code, out, err = run(
            capsys, "energy", "--D", "3", "--n", "1", "--scheme", scheme, "--beta", "1"
        )
        assert code == 1 and out == ""
        assert "dimspec: invalid parameters: --beta needs scheme explicit" in err

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_exit_code(self, capsys, alpha):
        code, _, err = run(
            capsys, "energy", "--scheme", "explicit", "--m", "1", f"--alpha={alpha}",
            "--beta", "1", "--n", "1", "--D", "3",
        )
        assert code == 1
        assert "dimspec: invalid parameters:" in err and "Traceback" not in err

    @pytest.mark.parametrize("n", ["10001", "9" * 401])
    def test_n_above_limit_exit_code(self, capsys, n):
        code, out, err = run(
            capsys, "energy", "--scheme", "explicit", "--D", "3", "--n", n,
            "--alpha", "1", "--beta", "1",
        )
        assert code == 1 and out == ""
        assert "dimspec: invalid parameters: need n <= 10000" in err and "Traceback" not in err

    def test_magnitude_stress_point(self, capsys):
        code, out, _ = run(
            capsys, "energy", "--D", "19", "--n", "5", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["classification"] == "bound"
        assert obj["E0_decimal"].endswith("e-159")

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "energy", "--D", "4", "--n", "1")
        assert code == 0
        assert "divergent" in out

    def test_bad_dimension_is_usage_error(self, capsys):
        code, _, err = run(capsys, "energy", "--D", "1", "--n", "1")
        assert code == 1

    @pytest.mark.parametrize("m", [[], ["--m", "2"]], ids=["m-default", "m-equals-n"])
    @pytest.mark.parametrize(
        "alpha,beta,tag",
        [
            ("0.5", "3", "bound"),
            ("0.5", "0", "logarithmic"),
            ("-0.5", "3", "repulsive"),
            ("0", "3", "repulsive"),
            ("0.5", "4", "divergent"),
            ("0.5", "5", "singular"),
            ("0.5", "-1", "invalid"),
        ],
    )
    def test_explicit_record_round_trips(self, capsys, m, alpha, beta, tag):
        argv = ["energy", "--scheme", "explicit", "--D", "5", "--n", "2", *m,
                f"--alpha={alpha}", "--beta", beta]
        rec = _energy_record(build_parser().parse_args(argv))
        assert rec.outcome.classification.value == tag
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0 and out == render_records_csv([rec])
        assert parse_records_csv(out) == [rec]
        assert parse_records_json(render_records_json([rec])) == [rec]


class TestPotential:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "potential", "--D", "7", "--m", "3")
        assert code == 0
        assert "attractive" in out and "beta = 1" in out

    def test_json_logarithmic(self, capsys):
        code, out, _ = run(
            capsys, "potential", "--D", "6", "--m", "3", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["nature"] == "logarithmic" and obj["alpha"] is None

    def test_short_range_exit_code(self, capsys):
        code, _, err = run(capsys, "potential", "--D", "3", "--m", "2")
        assert code == 1

    def test_huge_dimension_rejected(self, capsys):
        start = time.process_time()
        code, out, err = run(capsys, "potential", "--D", "1000000000000", "--m", "1")
        assert time.process_time() - start < 0.5
        assert code == 1 and out == ""
        assert "invalid parameters" in err and "Traceback" not in err


class TestFeasible:
    def test_published_window(self, capsys):
        code, out, _ = run(capsys, "feasible", "--n", "3", "--scheme", "mn")
        assert code == 0
        assert out.strip() == "7 8 9 10 11"

    def test_m1_flags_omitted_dimension(self, capsys):
        code, out, err = run(capsys, "feasible", "--n", "3", "--scheme", "m1")
        assert code == 0
        assert out.strip() == "3 4 5 6 7"
        assert "paper-omitted" in err and "D=4" in err

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "feasible", "--n", "3", "--scheme", "m1", "--format", "json"
        )
        obj = json.loads(out)
        assert obj["members"] == [3, 4, 5, 6, 7]
        assert obj["paper_omitted"] == [4]
        assert (obj["d_min"], obj["d_max"]) == (2, 8)

    def test_n_above_limit_exit_code(self, capsys):
        code, out, err = run(capsys, "feasible", "--n", "10001")
        assert code == 1 and out == ""
        assert "dimspec: invalid parameters: need n <= 10000" in err and "Traceback" not in err


class TestScan:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--D", "3:11", "--n", "1,3", "--format", "csv"
        )
        assert code == 0
        records = parse_records_csv(out)
        assert len(records) == 18
        assert sum(r.outcome.is_bound for r in records) == 6

    def test_output_sorted_by_n_then_D(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--D", "3:11", "--n", "1,3", "--format", "csv"
        )
        records = parse_records_csv(out)
        keys = [(r.params.n, r.params.D) for r in records]
        assert keys == sorted(keys)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "records.csv"
        code, out, _ = run(
            capsys, "scan", "--D", "3:5", "--n", "1", "--format", "csv",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        assert len(parse_records_csv(target.read_text())) == 3

    def test_bad_range_syntax(self, capsys):
        code, _, err = run(capsys, "scan", "--D", "11:3", "--n", "1")
        assert code == 1

    @pytest.mark.parametrize(
        "D,message",
        [
            ("3:", "cannot parse integer set"),
            ("a", "cannot parse integer set"),
            (",", "empty integer set"),
        ],
    )
    def test_unreadable_integer_set(self, capsys, D, message):
        code, out, err = run(capsys, "scan", "--D", D, "--n", "1")
        assert code == 1 and out == ""
        assert f"{message} {D!r}" in err

    def test_huge_range_rejected_before_expansion(self, capsys):
        start = time.process_time()
        code, out, err = run(capsys, "scan", "--D", "2:1000000000", "--n", "1")
        assert time.process_time() - start < 0.5
        assert code == 1 and out == ""
        assert "D values must lie in [2, 64]" in err
        assert "Traceback" not in err


class TestOutputFile:
    def test_missing_directory_exit_code(self, capsys, tmp_path):
        target = tmp_path / "missing" / "records.csv"
        code, out, err = run(capsys, "scan", "--D", "3", "--n", "1", "--out", str(target))
        assert code == 1 and out == ""
        assert f"dimspec: invalid parameters: cannot write {target}" in err
        assert "Traceback" not in err

    def test_directory_path_exit_code(self, capsys, tmp_path):
        code, out, err = run(capsys, "table1", "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert f"dimspec: invalid parameters: cannot write {tmp_path}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("verb,fmt", _VERB_FORMATS)
    def test_out_gets_the_stdout_bytes(self, capsys, tmp_path, verb, fmt):
        argv = _verb_argv(verb, fmt)
        code, out, _ = run(capsys, *argv)
        target = tmp_path / "out"
        assert run(capsys, *argv, "--out", str(target))[:2] == (code, "")
        assert code == 0 and target.read_bytes() == out.encode("utf-8")


# sha256 of stdout for argvs that benchmarks/golden.json does not cover
_BYTE_PINS = {
    "scan --D 2:64 --n 1:16 --format text":
        "502dac4bfa022307449dd305617a97d7dc071b70c8919a56f370e56a2ca9a81c",
    "scan --D 2:30 --n 1:9 --scheme m1 --format text":
        "0b5ed14ea1420d29e6e4d4ca96c58a295769d3a7fe56d1ee5e01fb7f387298de",
    "table1 --format csv":
        "d38db9da0dafafde5b5169b67435102f247c030ff712281128255eb799c3b773",
    "table1 --format json":
        "789883f03b8c8e899e610c0f61c0ace18a8b5e5c1cc5085c308ff0bdc6036c44",
    "radial --D 5 --alpha 2 --convention half --excitation 2 --format text":
        "51d7eeae831bcee7d18ae5b0ecf68d48a94649a72ed7054864bcb7ee8b0ceff3",
    "radial --D 5 --alpha 2 --convention half --excitation 2 --format json":
        "030949b17987c5f2c06881abd99ca8d09df671051bbfbc0d4b5f9be30be73011",
    "feasible --n 3 --scheme m1 --format text":
        "34fb88ec7fa2959cf322eae2a477e6fa6795717d114a9ad7080e5529bef0eddc",
    "feasible --n 3 --scheme m1 --format json":
        "3ae40799c808b1777555881ba98ef074a8f296b320e81259d658173279b60b6c",
}


class TestFormatChoices:
    """Each --format a verb's parser accepts is one its writer is handed."""

    def test_every_verb_is_covered(self):
        assert set(_verb_parsers()) == set(_VERB_ARGVS)

    @pytest.mark.parametrize("verb,fmt", _VERB_FORMATS)
    def test_output_parses_as_the_chosen_format(self, capsys, verb, fmt):
        code, out, _ = run(capsys, *_verb_argv(verb, fmt))
        assert code == 0
        if fmt == "json":
            payload = strict_json(out)
            assert isinstance(payload, (dict, list)) and payload
        elif fmt == "csv":
            header, *rows = csv.reader(io.StringIO(out))
            assert all(re.fullmatch(r"[A-Za-z_]\w*", name) for name in header)
            assert rows and all(len(row) == len(header) for row in rows)
        else:
            assert out.strip()


class TestBytePins:
    @pytest.mark.parametrize("key", sorted(_BYTE_PINS))
    def test_stdout_digest(self, capsys, key):
        code, out, _ = run(capsys, *key.split(" "))
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _BYTE_PINS[key]


class TestStrictJson:
    @pytest.mark.parametrize(
        "argv,cell,lnmag",
        [
            (["energy", "--scheme", "explicit", "--D", "3", "--n", "1",
              "--alpha", "1e308", "--beta", "1"], "E0", "E0_lnmag"),
            (["potential", "--D", "10000", "--m", "1"], "alpha", "alpha_lnmag"),
        ],
        ids=["energy-E0", "potential-alpha"],
    )
    def test_saturated_float_is_null(self, capsys, argv, cell, lnmag):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        obj = strict_json(out)
        assert obj[cell] is None
        assert obj[lnmag] > 709.0  # the lossless cell keeps the value

    @pytest.mark.parametrize(
        "argv,cell,sign",
        [
            (["energy", "--scheme", "explicit", "--D", "3", "--n", "1",
              "--alpha", "1e-308", "--beta", "1"], "E0", "E0_sign"),
            (["potential", "--D", "2423", "--m", "1147"], "alpha", "alpha_sign"),
        ],
        ids=["energy-E0", "potential-alpha"],
    )
    def test_underflowed_float_is_null(self, capsys, argv, cell, sign):
        # a nonzero value below the float range is not written as a zero
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        obj = strict_json(out)
        assert obj[cell] is None
        assert obj[sign] in (-1, 1)


class TestTable1:
    def test_text_has_all_rows(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 11  # header + 10 rows
        assert "-4.41e-97" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table1", "--format", "json")
        rows = json.loads(out)
        assert len(rows) == 10
        extreme = next(r for r in rows if (r["D"], r["n"]) == (19, 5))
        assert extreme["paper_E0"] == pytest.approx(-4.41e-97)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_paper_E0_as_printed(self, capsys, fmt):
        # the published energies are written as the table prints them, the
        # same cell as scan writes at that point
        _, out, _ = run(capsys, "table1", "--format", fmt)
        _, scanned, _ = run(capsys, "scan", "--D", "3:19", "--n", "1:5", "--format", fmt)
        if fmt == "csv":
            rows = list(csv.DictReader(io.StringIO(out)))
            scan_rows = list(csv.DictReader(io.StringIO(scanned)))
        else:
            rows, scan_rows = json.loads(out), json.loads(scanned)
        scan_cells = {(int(r["D"]), int(r["n"])): r["paper_E0"] for r in scan_rows}
        assert len(rows) == len(TABLE1_E0)
        for row in rows:
            key = (int(row["D"]), int(row["n"]))
            assert row["paper_E0"] == scan_cells[key]
            assert float(row["paper_E0"]) == TABLE1_E0[key]


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, err = run(capsys, "verify", "--max-n", "3", "--max-D", "12")
        assert code == 0
        assert out.strip() == "oracle–closed-form max relative deviation ≤ 1e-8"
        assert "bound points" in err

    def test_stderr_names_worst_points(self, capsys):
        code, _, err = run(capsys, "verify", "--max-n", "3", "--max-D", "12")
        assert code == 0
        point = r"\((\d+), (\d+), (mn|m1)\)"
        assert re.search(rf"worst ln\|E\| at {point}, worst r\* at {point}$", err.strip())

    # field moved -> (its gate, the report's worst point of it, stderr's name of that point)
    GATES = {
        "lnmag_oracle": (1e-8, "worst_lnmag", "worst ln|E| at "),
        "r_star_search": (1e-9, "worst_r_star", "worst r* at "),
    }

    @pytest.mark.parametrize(
        "fields,crossed",
        [
            (["lnmag_oracle"], "1e-8 in ln|E|"),
            (["r_star_search"], "1e-9 in r*"),
            (["lnmag_oracle", "r_star_search"], "1e-8 in ln|E| and 1e-9 in r*"),
        ],
        ids=["ln-E", "r-star", "both"],
    )
    def test_deviation_past_its_gate_exits_2(self, capsys, monkeypatch, fields, crossed):
        # a real sweep with its last point moved ten gates off the closed form
        report = cli.oracle_equivalence_report(max_n=3, max_D=12)
        last = report.points[-1]
        moved = {f: getattr(last, f) * (1 + 10 * self.GATES[f][0]) for f in fields}
        bad = dataclasses.replace(last, **moved)
        worst = {self.GATES[f][1]: bad for f in fields}
        report = dataclasses.replace(report, points=report.points[:-1] + [bad], **worst)
        monkeypatch.setattr(cli, "oracle_equivalence_report", lambda max_n, max_D: report)
        code, out, err = run(capsys, "verify", "--max-n", "3", "--max-D", "12")
        assert code == 2
        # stdout names each gate crossed, with its own bound
        assert out.strip() == f"oracle–closed-form max relative deviation exceeds {crossed}"
        label = f"({bad.D}, {bad.n}, {bad.scheme.value})"
        for f in fields:
            assert self.GATES[f][2] + label in err

    def test_empty_sweep_exit_code(self, capsys):
        code, _, err = run(capsys, "verify", "--max-D", "2")
        assert code == 1
        assert "invalid parameters" in err

    @pytest.mark.parametrize(
        "argv",
        [("--max-n", "2000", "--max-D", "2"), ("--max-n", "17"), ("--max-D", "65")],
        ids=["max-n-2000", "max-n-17", "max-D-65"],
    )
    def test_caps_rejected_before_work(self, capsys, argv):
        start = time.process_time()
        code, out, err = run(capsys, "verify", *argv)
        assert time.process_time() - start < 1.0
        assert code == 1 and out == ""
        assert "invalid parameters" in err and "Traceback" not in err


class TestRadial:
    def test_half_laplacian_ground(self, capsys):
        code, out, _ = run(
            capsys, "radial", "--D", "3", "--alpha", "1", "--convention", "half",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["E"] == pytest.approx(-0.5, abs=1e-4)
        assert obj["nodes"] == 0

    @pytest.mark.parametrize("D,alpha", [("25", "1"), ("3", "1e-6")])
    def test_levels_beyond_a_fixed_box(self, capsys, D, alpha):
        code, out, _ = run(capsys, "radial", "--D", D, "--alpha", alpha, "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["nodes"] == 0 and obj["sweeps"] > 0

    def test_json_reports_the_solver_counters(self, capsys):
        code, out, _ = run(capsys, "radial", "--D", "3", "--alpha", "1", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == [
            "D", "alpha", "beta", "convention", "excitation", "E", "shift", "nodes",
            "r_max", "h", "sweeps", "matches", "steps",
        ]
        assert obj["sweeps"] > 2 * obj["matches"] > 0 and obj["steps"] > 0
        assert 0.0 < obj["shift"] < 1e-8 * -obj["E"]

    def test_text_keeps_tiny_levels_and_reports_sweeps(self, capsys):
        code, out, _ = run(capsys, "radial", "--D", "3", "--alpha", "1e-6")
        assert code == 0
        energy = float(out.split()[2])
        assert energy == pytest.approx(-2.5e-13, rel=1e-6)
        assert "sweeps=" in out and "matches=" in out and "steps=" in out
        assert "shift=" in out

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_exit_code(self, capsys, alpha):
        code, _, err = run(capsys, "radial", "--D", "3", f"--alpha={alpha}")
        assert code == 1
        assert "invalid parameters" in err and "Traceback" not in err

    def test_dimension_above_limit_exit_code(self, capsys):
        code, out, err = run(capsys, "radial", "--D", "1316", "--alpha", "1", "--convention", "half")
        assert code == 1 and out == ""
        assert "invalid parameters" in err and "Traceback" not in err

    @pytest.mark.parametrize("beta", ["2", "3"])
    def test_singular_exit_code(self, capsys, beta):
        # rejected before any numerics run, as --beta 0 is; by Hardy's
        # inequality nothing falls to the center at D = 5, alpha = 1 either
        code, _, err = run(capsys, "radial", "--D", "5", "--alpha", "1", "--beta", beta)
        assert code == 1
        assert "invalid parameters" in err
        assert "fall-to-center" not in err

    def test_excitation_above_limit_exit_code(self, capsys):
        code, out, err = run(
            capsys, "radial", "--D", "3", "--alpha", "1", "--convention", "half",
            "--excitation", str(RADIAL_EXCITATION_LIMIT + 1),
        )
        assert code == 1 and out == ""
        assert f"needs excitation <= {RADIAL_EXCITATION_LIMIT}" in err
        assert "Traceback" not in err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "no-such-verb")[0] == 1
        # so is a --format the verb does not write
        assert run(capsys, "feasible", "--n", "3", "--format", "csv")[0] == 1
        assert run(capsys, "verify", "--format", "json")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


# integers from the edges of every domain up to far past every limit
_ints = st.one_of(st.integers(-3, 40), st.integers(-(10**30), 10**30))


def _flag(name, values, optional=False):
    flag = values.map(lambda v: [f"--{name}={v}"])
    return st.one_of(st.just([]), flag) if optional else flag


_ARGVS = st.one_of(
    st.tuples(
        st.just(["energy"]), _flag("D", _ints), _flag("n", _ints), _flag("m", _ints, True),
        _flag("scheme", st.sampled_from(["mn", "m1", "explicit"]), True),
        _flag("alpha", st.floats(), True), _flag("beta", _ints, True),
    ),
    st.tuples(st.just(["potential"]), _flag("D", _ints), _flag("m", _ints)),
    st.tuples(
        st.just(["feasible"]), _flag("n", _ints),
        _flag("scheme", st.sampled_from(["mn", "m1"]), True),
    ),
    st.tuples(
        st.just(["radial"]), _flag("D", _ints), _flag("alpha", st.floats()),
        _flag("beta", _ints, True), _flag("convention", st.sampled_from(["full", "half"]), True),
        _flag("excitation", _ints, True),
    ),
).map(lambda parts: [arg for part in parts for arg in part])


class TestRobustness:
    @given(argv=_ARGVS, fmt=st.sampled_from([[], ["--format=json"], ["--format=text"]]))
    @settings(max_examples=150, deadline=None)
    def test_every_argv_ends_in_an_exit_code(self, argv, fmt):
        # a classified result or a DimspecError mapped to 1 or 2, never a raise
        assert run_cli(argv + fmt) in (0, 1, 2)


_VERIFY_ARGVS = st.tuples(
    st.just(["verify"]), _flag("max-n", _ints), _flag("max-D", _ints),
    _flag("format", st.sampled_from(["csv", "json", "text"]), True),
).map(lambda parts: [arg for part in parts for arg in part])


class TestVerifyRobustness:
    # a sweep runs only when both caps land inside the grid and no --format
    # is drawn, a few draws in a hundred; the largest, (16, 64), takes ~60 ms
    @given(argv=_VERIFY_ARGVS)
    @settings(max_examples=100, deadline=None)
    def test_every_verify_argv_ends_in_an_exit_code(self, argv):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = run_cli(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


# integer-set tokens for --D/--n: single values and ranges, joined by commas,
# drawn often enough from the grid that some scans succeed
_set_ints = st.one_of(st.integers(2, 16), _ints)
_set_token = st.one_of(
    _set_ints.map(str), st.tuples(_set_ints, _set_ints).map(lambda r: f"{r[0]}:{r[1]}")
)
_int_sets = st.lists(_set_token, min_size=1, max_size=3).map(",".join)

_TABLE_ARGVS = st.one_of(
    st.tuples(
        st.just(["scan"]), _flag("D", _int_sets), _flag("n", _int_sets),
        _flag("scheme", st.sampled_from(["mn", "m1"]), True),
    ).map(lambda parts: [arg for part in parts for arg in part]),
    st.just(["table1"]),
)


class TestTableRobustness:
    @given(
        argv=_TABLE_ARGVS,
        fmt=st.sampled_from(["csv", "json", "text"]),
        out=st.sampled_from(["stdout", "file", "missing-dir", "dir"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_scan_and_table1_end_in_an_exit_code(self, argv, fmt, out):
        with tempfile.TemporaryDirectory() as tmp:
            target = {
                "stdout": None,
                "file": Path(tmp, "table"),
                "missing-dir": Path(tmp, "missing", "table"),
                "dir": Path(tmp),
            }[out]
            out_argv = [] if target is None else [f"--out={target}"]
            stdout = io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                code = run_cli(argv + [f"--format={fmt}"] + out_argv)
            assert code in (0, 1, 2)
            if out in ("missing-dir", "dir"):
                assert code == 1
            if code == 0 and fmt == "json":
                strict_json(stdout.getvalue() if target is None else target.read_text())
