"""Metric catalogue: names, units, directions and bounds.

``BENCHMARK.json`` at the repository root is ``benchmark_json()`` written
out; ``test_harness.py`` checks that the two agree and that ``README.md``
documents every name (with its module and the end-to-end metric it moves).

Every run prints every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``), whatever the workload, so each end-to-end metric is
defined on all three workloads; README.md says what it measures on each.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

WORKLOADS = ("survey", "oracles", "cold-cli")
RUN_SECONDS = 20
WHY = {
    "survey": "closed-form modules and the CSV/JSON wire format do the work; oracle does none",
    "oracles": "mpmath V_eff minimizer and pure-Python Numerov radial solver dominate",
    "cold-cli": "fresh `python -m dimspec` processes, so imports and argparse are paid every time",
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: Optional[float] = None  # end-to-end only: allowed worsening, share of the median


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("work_per_norm_s", "1/s", "higher", 0.25),
    Metric("pass_norm_ms_p50", "ms", "lower", 0.25),
    Metric("pass_norm_ms_p90", "ms", "lower", 0.25),
    Metric("ops_ok_ratio", "ratio", "higher", 0.01),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
)

RADIAL_CASES = (
    "d3_full_k0",
    "d3_full_k1",
    "d3_half_k0",
    "d3_half_k1",
    "d5_full_k0",
    "d25_full_k0",
    "d3_tiny_alpha",
)
CLI_VERBS = ("feasible", "potential", "energy", "table1", "scan", "verify")
OVERHEAD_OF = ("work_per_norm_s", "pass_norm_ms_p50", "pass_norm_ms_p90")

PER_LAYER = (
    Metric("signedlog.add_ns", "ns", "lower"),
    Metric("signedlog.mul_ns", "ns", "lower"),
    Metric("signedlog.to_decimal_us", "us", "lower"),
    Metric("model.classify_outcome_us", "us", "lower"),
    Metric("potential.alpha_coefficient_us", "us", "lower"),
    Metric("spectrum.e0_general_us", "us", "lower"),
    Metric("spectrum.e0_scheme_mn_us", "us", "lower"),
    Metric("feasibility.evaluate_point_us", "us", "lower"),
    Metric("feasibility.bound_dims_us", "us", "lower"),
    Metric("feasibility.scan_ms", "ms", "lower"),
    Metric("feasibility.scan_pool_ms", "ms", "lower"),
    Metric("report.render_csv_ms", "ms", "lower"),
    Metric("report.parse_csv_ms", "ms", "lower"),
    Metric("report.render_json_ms", "ms", "lower"),
    Metric("report.parse_json_ms", "ms", "lower"),
    Metric("report.table1_compare_ms", "ms", "lower"),
    Metric("report.csv_bytes", "bytes", "lower"),
    Metric("report.json_bytes", "bytes", "lower"),
    Metric("report.oracle_equivalence_report_s", "s", "lower"),
    Metric("oracle.minimize_v_eff_ms_p50", "ms", "lower"),
    Metric("oracle.minimize_v_eff_ms_p90", "ms", "lower"),
    *(Metric(f"oracle.radial_ground_state_s.{case}", "s", "lower") for case in RADIAL_CASES),
    Metric("oracle.radial_grid_points", "count", "lower"),
    Metric("oracle.radial_grid_bytes", "bytes", "lower"),
    Metric("oracle.radial_box_doublings", "count", "lower"),
    Metric("cli.python_bare_ms", "ms", "lower"),
    Metric("cli.import_dimspec_ms", "ms", "lower"),
    Metric("cli.import_numpy_ms", "ms", "lower"),
    Metric("cli.import_mpmath_ms", "ms", "lower"),
    *(Metric(f"cli.verb_cold_ms.{verb}", "ms", "lower") for verb in CLI_VERBS),
    *(Metric(f"cli.verb_warm_ms.{verb}", "ms", "lower") for verb in CLI_VERBS),
    *(Metric(f"trace.overhead.{name}", "ratio", "lower") for name in OVERHEAD_OF),
    Metric("trace.spans", "count", "lower"),
)

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def valid_name(name: str) -> bool:
    return bool(_NAME.match(name))


def valid_unit(unit: str) -> bool:
    return bool(_UNIT.match(unit))


def benchmark_json() -> dict:
    """The BENCHMARK.json document this catalogue implies."""
    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
