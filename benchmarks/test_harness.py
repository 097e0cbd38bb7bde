"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s benchmarks -p 'test_*.py'
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
from speed import NOMINAL_S, Speed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import tail  # noqa: E402

SMOKE_SKIPPED = {  # solvable radial cases take seconds each, so --smoke leaves them out
    f"oracle.radial_ground_state_s.{case}"
    for case in ("d3_full_k0", "d3_full_k1", "d3_half_k0", "d3_half_k1", "d5_full_k0")
}


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


class MetricCatalogue(unittest.TestCase):
    def test_names_and_units_are_valid_and_unique(self):
        everything = metrics.END_TO_END + metrics.PER_LAYER
        names = [m.name for m in everything]
        self.assertEqual(len(names), len(set(names)))
        for m in everything:
            self.assertTrue(metrics.valid_name(m.name), m.name)
            self.assertTrue(metrics.valid_unit(m.unit), m.unit)
            self.assertIn(m.better, ("lower", "higher"))
        self.assertLessEqual(len(metrics.PER_LAYER), 128)

    def test_bounds(self):
        bounds = {m.name: m.bound for m in metrics.END_TO_END}
        for name, bound in bounds.items():
            self.assertTrue(0 < bound <= 0.25, name)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_benchmark_json_is_the_catalogue(self):
        committed = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(committed, metrics.benchmark_json())
        self.assertEqual([w["name"] for w in committed["workloads"]], list(metrics.WORKLOADS))

    def test_readme_documents_every_metric(self):
        readme = (HERE / "README.md").read_text()
        for m in metrics.END_TO_END + metrics.PER_LAYER:
            self.assertIn(f"`{m.name}`", readme)


class SeededInputs(unittest.TestCase):
    def draw(self, seed: int):
        rng = inputs.child_rng(seed, "survey")
        return (
            [inputs.survey_pass(rng) for _ in range(3)],
            inputs.veff_queries(inputs.child_rng(seed, "veff"), 5),
            inputs.radial_mix(inputs.child_rng(seed, "radial")),
            [inputs.cli_block(inputs.child_rng(seed, "cli")) for _ in range(2)],
        )

    def test_same_seed_same_inputs(self):
        self.assertEqual(self.draw(7), self.draw(7))

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(self.draw(7), self.draw(8))

    def test_inputs_stay_in_their_domains(self):
        rng = random.Random(3)
        for _ in range(200):
            spec = inputs.survey_pass(rng)
            for rect in spec.rectangles:
                self.assertTrue(2 <= rect.Ds[0] and rect.Ds[-1] <= 64)
                self.assertTrue(1 <= rect.ns[0] and rect.ns[-1] <= 16)
            for c in spec.couplings:
                self.assertTrue(0 < c.beta < 2 * c.n)
                self.assertTrue(1e-6 <= c.alpha <= 1e6)

    def test_every_survey_pass_covers_the_grid_once_per_scheme(self):
        full = sorted((D, n) for D in range(2, 65) for n in range(1, 17))
        rng = random.Random(4)
        for _ in range(50):
            spec = inputs.survey_pass(rng)
            self.assertEqual(spec.points, 2 * len(full) + inputs.COUPLINGS_PER_PASS)
            for scheme in ("mn", "m1"):
                covered = sorted(
                    (D, n) for r in spec.rectangles if r.scheme == scheme for D in r.Ds for n in r.ns
                )
                self.assertEqual(covered, full)

    def test_every_drawable_argv_has_a_golden_digest(self):
        golden = checks.load_golden()
        for argv in inputs.all_golden_argvs():
            self.assertIn(inputs.argv_key(argv), golden)


class TracingAndStatistics(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                sum(range(20000))
            with tr.span("inner"):
                sum(range(20000))
        table = tr.self_times()
        outer = tr.durations("outer")[0]
        inner = sum(tr.durations("inner"))
        self.assertEqual(table["inner"]["count"], 2)
        self.assertAlmostEqual(table["outer"]["self_s"], outer - inner, places=12)
        self.assertEqual([s[4] for s in tr.spans], [None, 0, 0])

    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertEqual(tail([1.0, 2.0, 30.0]), 2.0)  # too few samples: the median
        self.assertEqual(tail([1.0] * 98 + [5.0, 9.0]), 1.0)
        self.assertAlmostEqual(tail([float(i) for i in range(100)]), 89.9)


class Normalization(unittest.TestCase):
    def test_scales_by_the_kernel_runs_around_and_during_the_work(self):
        with Speed() as speed:
            speed.last = 2 * NOMINAL_S  # the in-process run just before the work
            speed._run_kernel = lambda: 4 * NOMINAL_S  # and the one right after it
            speed._drain = lambda: None
            speed.sampled = [(time.monotonic() - 3600, 100.0)]  # long before: ignored
            with speed.measure() as m:
                speed.sampled.append((time.monotonic(), 6 * NOMINAL_S))  # during the work
                sum(range(200000))
        self.assertGreater(m.cpu_s, 0)
        self.assertAlmostEqual(m.norm_s, m.cpu_s / 4)

    def test_sampler_reports_while_the_work_runs(self):
        with Speed() as speed:
            with speed.measure():
                end = time.monotonic() + 0.5
                while time.monotonic() < end:
                    pass
            self.assertGreaterEqual(len(speed.sampled), 2)
            sampler = speed._sampler
        self.assertIsNotNone(sampler.poll())  # stopped and reaped


class Smoke(unittest.TestCase):
    def result(self, proc: subprocess.CompletedProcess) -> dict:
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def test_every_workload_prints_every_end_to_end_metric(self):
        wanted = {m.name for m in metrics.END_TO_END}
        for workload in metrics.WORKLOADS:
            with self.subTest(workload=workload):
                result = self.result(run_bench(
                    "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0", "--smoke"
                ))
                self.assertEqual(set(result["metrics"]), wanted)
                for entry in result["metrics"].values():
                    self.assertGreater(entry["value"], 0)

    def test_traced_run_prints_every_per_layer_metric(self):
        result = self.result(run_bench(
            "--workload", "survey", "--seed", "5", "--seconds", "1", "--trace", "1", "--smoke"
        ))
        self.assertEqual(set(result["metrics"]), {m.name for m in metrics.PER_LAYER} - SMOKE_SKIPPED)

    def test_known_defects_are_counted(self):
        result = self.result(run_bench(
            "--workload", "oracles", "--seed", "5", "--seconds", "1", "--trace", "0", "--smoke"
        ))
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["ops_ok_ratio"]["value"], 1.0)

    def test_refuses_a_tree_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run_bench("--workload", "survey", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
