import json

import pytest

from dimspec import parse_records_csv
from dimspec.cli import run_cli


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_bad_thread_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DIMSPEC_THREADS", "zero")
        code, _, err = run(capsys, "scan", "--D", "3", "--n", "1")
        assert code == 1


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


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, err = run(capsys, "verify", "--max-n", "3", "--max-D", "12")
        assert code == 0
        assert out.strip() == "oracle–closed-form max relative deviation ≤ 1e-8"
        assert "bound points" in err


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

    def test_text_keeps_tiny_levels_and_reports_sweeps(self, capsys):
        code, out, _ = run(capsys, "radial", "--D", "3", "--alpha", "1e-6")
        assert code == 0
        energy = float(out.split()[2])
        assert energy == pytest.approx(-2.5e-13, rel=1e-6)
        assert "sweeps=" in out

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_exit_code(self, capsys, alpha):
        code, _, err = run(capsys, "radial", "--D", "3", f"--alpha={alpha}")
        assert code == 1
        assert "invalid parameters" in err and "Traceback" not in err

    def test_singular_exit_code(self, capsys):
        code, _, err = run(capsys, "radial", "--D", "5", "--alpha", "1", "--beta", "3")
        assert code == 2
        assert "numerical failure" in err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "no-such-verb")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
