"""Per-module figures for the traced run, timed at each module's public entry points.

Every probe call runs inside a span named ``<module>.<function>`` under a
``probe.<module>`` parent, and each figure is read back from those spans:
the median span length over several repetitions, divided by the number of
calls a span covers where one call is too short to time on its own. The
probes run after the workload, on every workload, so a traced run always
prints every per-layer metric.
"""

from __future__ import annotations

import math
import os
import re
import sys
from pathlib import Path
from statistics import median

from dimspec import (
    THREADS_ENV_VAR,
    EnergyQuery,
    Scheme,
    SignedLogReal,
    alpha_coefficient,
    bound_dims,
    classify_outcome,
    e0_general,
    e0_scheme_mn,
    evaluate_point,
    minimize_v_eff,
    oracle_equivalence_report,
    parse_records_csv,
    parse_records_json,
    render_records_csv,
    render_records_json,
    scan,
    sort_records,
    table1_compare,
)

import inputs
import workloads
from workloads import Tally, cli_captured, cold_run, run_child, solve_radial, tail

GRID_D, GRID_N = inputs.FULL_GRID
RADIAL_PREFIX = "oracle.radial_ground_state_s."
PROBE_ARGVS = {
    "feasible": ("feasible", "--n", "3", "--scheme", "mn", "--format", "text"),
    "potential": ("potential", "--D", "7", "--m", "3", "--format", "text"),
    "energy": ("energy", "--D", "11", "--n", "5", "--scheme", "mn", "--format", "text"),
    **inputs.FIXED_ARGVS,
}


def _timed(tr, name: str, fn, reps: int, per: int = 1) -> float:
    """Median seconds per call of ``fn`` over ``reps`` spans of ``per`` calls each."""
    for _ in range(reps):
        with tr.span(name):
            fn()
    return median(tr.durations(name)[-reps:]) / per


def signedlog(tr, rng, smoke: bool) -> dict:
    count = 2000 if smoke else 20000
    xs = [SignedLogReal(rng.choice((-1, 1)), rng.uniform(-300.0, 300.0)) for _ in range(count)]
    ys = [SignedLogReal(rng.choice((-1, 1)), rng.uniform(-300.0, 300.0)) for _ in range(count)]
    pairs = list(zip(xs, ys))
    few = xs[: count // 4]
    return {
        "signedlog.add_ns": 1e9 * _timed(tr, "signedlog.__add__", lambda: [a + b for a, b in pairs], 5, count),
        "signedlog.mul_ns": 1e9 * _timed(tr, "signedlog.__mul__", lambda: [a * b for a, b in pairs], 5, count),
        "signedlog.to_decimal_us": 1e6 * _timed(
            tr, "signedlog.to_decimal", lambda: [x.to_decimal() for x in few], 5, len(few)
        ),
    }


def closed_forms(tr, rng) -> dict:
    points = [(D, n, m) for D in GRID_D for n in GRID_N for m in (n, 1)]
    couplings = [inputs.coupling(rng) for _ in range(2000)]
    queries = [EnergyQuery(SignedLogReal.from_float(c.alpha), c.beta, c.n, c.D) for c in couplings]
    pots = [(D, m) for D in GRID_D for m in GRID_N if D >= 2 * m]
    grid = [(D, n) for D in GRID_D for n in GRID_N]
    windows = [(n, s) for n in GRID_N for s in (Scheme.M_EQUALS_N, Scheme.M_EQUALS_ONE)]
    mn = Scheme.M_EQUALS_N
    return {
        "model.classify_outcome_us": 1e6 * _timed(
            tr, "model.classify_outcome", lambda: [classify_outcome(*p) for p in points], 5, len(points)
        ),
        "potential.alpha_coefficient_us": 1e6 * _timed(
            tr, "potential.alpha_coefficient", lambda: [alpha_coefficient(*p) for p in pots], 5, len(pots)
        ),
        "spectrum.e0_general_us": 1e6 * _timed(
            tr, "spectrum.e0_general", lambda: [e0_general(q) for q in queries], 5, len(queries)
        ),
        "spectrum.e0_scheme_mn_us": 1e6 * _timed(
            tr, "spectrum.e0_scheme_mn", lambda: [e0_scheme_mn(*p) for p in grid], 5, len(grid)
        ),
        "feasibility.evaluate_point_us": 1e6 * _timed(
            tr, "feasibility.evaluate_point", lambda: [evaluate_point(D, n, mn) for D, n in grid], 5, len(grid)
        ),
        "feasibility.bound_dims_us": 1e6 * _timed(
            tr, "feasibility.bound_dims", lambda: [bound_dims(*w) for w in windows * 10], 5, 10 * len(windows)
        ),
    }


def scans(tr, tally: Tally, cores: set) -> dict:
    """Serial scan beside the DIMSPEC_THREADS pool at the machine's core count.

    The harness is pinned to one core; the pool gets all of ``cores`` back.
    """
    mn = Scheme.M_EQUALS_N
    nproc = len(cores)
    serial_ms = 1e3 * _timed(tr, "feasibility.scan", lambda: scan(GRID_D, GRID_N, mn), 7)
    serial = render_records_csv(sort_records(scan(GRID_D, GRID_N, mn)))
    previous = os.environ.get(THREADS_ENV_VAR)
    os.environ[THREADS_ENV_VAR] = str(nproc)
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cores)
    try:
        pool_ms = 1e3 * _timed(tr, "feasibility.scan_pool", lambda: scan(GRID_D, GRID_N, mn), 7)
        pooled = render_records_csv(sort_records(scan(GRID_D, GRID_N, mn)))
    finally:
        os.sched_setaffinity(0, pinned)
        if previous is None:
            del os.environ[THREADS_ENV_VAR]
        else:
            os.environ[THREADS_ENV_VAR] = previous
    tally.record("feasibility", pooled == serial, f"{THREADS_ENV_VAR}={nproc} scan CSV differs from serial")
    return {"feasibility.scan_ms": serial_ms, "feasibility.scan_pool_ms": pool_ms}


def wire_format(tr, tally: Tally) -> dict:
    records = sort_records(scan(GRID_D, GRID_N, Scheme.M_EQUALS_N))
    csv_text = render_records_csv(records)
    json_text = render_records_json(records)
    tally.record(
        "report",
        parse_records_csv(csv_text) == records and parse_records_json(json_text) == records,
        "parse(render(x)) != x on the full m = n grid",
    )
    return {
        "report.render_csv_ms": 1e3 * _timed(tr, "report.render_records_csv", lambda: render_records_csv(records), 7),
        "report.parse_csv_ms": 1e3 * _timed(tr, "report.parse_records_csv", lambda: parse_records_csv(csv_text), 7),
        "report.render_json_ms": 1e3 * _timed(tr, "report.render_records_json", lambda: render_records_json(records), 7),
        "report.parse_json_ms": 1e3 * _timed(tr, "report.parse_records_json", lambda: parse_records_json(json_text), 7),
        "report.table1_compare_ms": 1e3 * _timed(tr, "report.table1_compare", table1_compare, 20),
        "report.csv_bytes": len(csv_text.encode("utf-8")),
        "report.json_bytes": len(json_text.encode("utf-8")),
    }


def oracle(tr, rng, tally: Tally, seed: int, smoke: bool, speed) -> dict:
    """Sweep, V_eff queries and the seeded radial mix, traced."""
    max_n, max_D = workloads.SMOKE_SWEEP if smoke else workloads.SWEEP
    with tr.span("report.oracle_equivalence_report"):
        report = oracle_equivalence_report(max_n, max_D)
    problem = workloads.check_sweep(report, max_n, max_D)
    tally.record("report", not problem, problem)
    figures = {"report.oracle_equivalence_report_s": tr.durations("report.oracle_equivalence_report")[-1]}

    couplings = inputs.veff_queries(rng, 20 if smoke else 100)
    for c in couplings:
        q = EnergyQuery(SignedLogReal.from_float(c.alpha), c.beta, c.n, c.D)
        with tr.span("oracle.minimize_v_eff"):
            found = minimize_v_eff(q)
        problem = workloads.check_minimum(c, q, found)
        tally.record("oracle", not problem, problem)
    ms = [1e3 * s for s in tr.durations("oracle.minimize_v_eff")[-len(couplings):]]
    figures["oracle.minimize_v_eff_ms_p50"] = median(ms)
    figures["oracle.minimize_v_eff_ms_p90"] = tail(ms)

    solved = []
    for case in workloads.radial_mix(seed, smoke):
        norm, _, sol = solve_radial(case, tally, speed, tr)
        figures[f"{RADIAL_PREFIX}{case.name}"] = norm
        if sol is not None:
            solved.append(sol)
    points = sum(len(s.grid) for s in solved)
    figures["oracle.radial_grid_points"] = points
    figures["oracle.radial_grid_bytes"] = 16 * points  # float64 grid and u arrays
    figures["oracle.radial_box_doublings"] = sum(math.log2(s.r_max / 40.0) for s in solved)
    return figures


_IMPORT_LINE = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|(\s+)(\S+)\s*$")


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import milliseconds of the first import of each package in -X importtime output."""
    found: dict[str, float] = {}
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match and match.group(3) not in found:
            found[match.group(3)] = int(match.group(1)) / 1e3
    return found


def cli(tr, tally: Tally, root: Path, golden: dict, smoke: bool, speed) -> dict:
    reps = 1 if smoke else 3
    figures = {}
    bare, imports = [], []
    for _ in range(reps):
        with tr.span("cli.python_bare"):
            with speed.measure() as m:
                code, _, _ = run_child([sys.executable, "-c", "pass"], root)
        tally.record("cli", code == 0, f"python -c pass: exit {code}")
        bare.append(m.norm_s)
        with tr.span("cli.importtime"):
            code, _, err = run_child([sys.executable, "-X", "importtime", "-c", "import dimspec"], root)
        times = import_times(err.decode("utf-8"))
        ok = code == 0 and {"dimspec", "numpy", "mpmath"} <= set(times)
        tally.record("cli", ok, f"-X importtime: exit {code}, packages {sorted(times)[:5]}")
        if ok:
            imports.append(times)
    figures["cli.python_bare_ms"] = 1e3 * median(bare)
    if imports:
        for pkg in ("dimspec", "numpy", "mpmath"):
            figures[f"cli.import_{pkg}_ms"] = median(t[pkg] for t in imports)
    for verb, argv in PROBE_ARGVS.items():
        cold = []
        for _ in range(reps):
            with tr.span(f"cli.cold.{verb}"):
                cold.append(cold_run(root, argv, golden, tally, speed).norm_s)
        figures[f"cli.verb_cold_ms.{verb}"] = 1e3 * median(cold)
        for _ in range(reps):
            with tr.span(f"cli.run_cli.{verb}"):
                code, _ = cli_captured(argv)
            tally.record("cli", code == 0, f"warm {inputs.argv_key(argv)}: exit {code}")
        figures[f"cli.verb_warm_ms.{verb}"] = 1e3 * median(tr.durations(f"cli.run_cli.{verb}")[-reps:])
    return figures


def run(tr, seed: int, tally: Tally, root: Path, golden: dict, smoke: bool, cores: set, speed) -> dict:
    """Every per-module figure. A probe that raises loses its figures and
    counts a failed operation; the others still run."""
    rng = inputs.child_rng(seed, "probe")
    groups = (
        ("signedlog", lambda: signedlog(tr, rng, smoke)),
        ("closed_forms", lambda: closed_forms(tr, rng)),
        ("feasibility", lambda: scans(tr, tally, cores)),
        ("report", lambda: wire_format(tr, tally)),
        ("oracle", lambda: oracle(tr, rng, tally, seed, smoke, speed)),
        ("cli", lambda: cli(tr, tally, root, golden, smoke, speed)),
    )
    figures = {}
    for module, probe in groups:
        with tr.span(f"probe.{module}"):
            try:
                figures.update(probe())
            except Exception as exc:  # keep the remaining probes running
                tally.record(module, False, f"probe raised {type(exc).__name__}: {exc}")
    return figures
