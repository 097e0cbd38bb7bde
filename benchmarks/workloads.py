"""The three workloads, driven through ``dimspec``'s public functions and CLI.

Each workload does a fixed amount of work, so a seed always gives the same
operations and the same failures. It times only the library calls (or, for
cold-cli, the child process) in CPU seconds, scales them to normalized
seconds with the reference kernel (``speed.py``), and checks every output
outside the timed region. With tracing on, alternate passes run traced, so
one run yields both the traced and the untraced figures that the tracing
overhead compares.

CPU time rather than wall time: the library is serial and CPU-bound, so on
an idle machine the two agree, while on a shared one wall time also counts
the time the process waited for a core, which depends on the neighbours.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import threading
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median, quantiles

from dimspec import (
    EnergyQuery,
    KineticConvention,
    NoConvergenceError,
    Scheme,
    SignedLogReal,
    e0_general,
    minimize_v_eff,
    oracle_equivalence_report,
    parse_records_csv,
    parse_records_json,
    radial_ground_state,
    render_records_csv,
    render_records_json,
    scan,
    sort_records,
)
from dimspec.cli import run_cli

import checks
import inputs
from tracing import NULL

SCHEMES = {"mn": Scheme.M_EQUALS_N, "m1": Scheme.M_EQUALS_ONE}
CONVENTIONS = {"full": KineticConvention.FULL_LAPLACIAN, "half": KineticConvention.HALF_LAPLACIAN}
SWEEP = (15, 64)  # oracle_equivalence_report(max_n, max_D) of the oracles workload
SMOKE_SWEEP = (5, 20)
QUERIES_PER_BLOCK = 16
SURVEY_PASSES_PER_S = 6  # survey runs round(seconds * this) passes
CLI_BLOCKS = 17  # 102 processes, so the 90th percentile has ten samples beyond it
CHILD_TIMEOUT_S = 120


class Tally:
    """Operations attempted and failed, per module.

    ``unexpected`` counts failures that are not the documented known defects
    and wrong outputs; any of those makes the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.unexpected = 0
        self.notes: list[str] = []

    def record(self, module: str, ok: bool, why: str = "", known: bool = False) -> None:
        self.attempted[module] += 1
        if ok:
            return
        self.failed[module] += 1
        if not known:
            self.unexpected += 1
        if len(self.notes) < 40:
            self.notes.append(f"{module}: {'known defect: ' if known else ''}{why}")

    def by_module(self) -> dict:
        return {
            m: {"attempted": self.attempted[m], "failed": self.failed[m]}
            for m in sorted(self.attempted)
        }


@dataclass
class Stats:
    """Normalized-time samples of one workload, kept apart for untraced (False) and traced (True) passes."""

    pass_s: dict = field(default_factory=lambda: {False: [], True: []})
    work: Counter = field(default_factory=Counter)
    work_s: Counter = field(default_factory=Counter)
    cpu_s: Counter = field(default_factory=Counter)  # the same work in raw CPU seconds
    details: dict = field(default_factory=dict)  # diagnostics for the result file

    def add_work(self, traced: bool, units: int, norm_s: float, cpu_s: float) -> None:
        self.work[traced] += units
        self.work_s[traced] += norm_s
        self.cpu_s[traced] += cpu_s

    def figures(self, traced: bool) -> dict:
        samples = self.pass_s[traced]
        return {
            "work_per_norm_s": self.work[traced] / self.work_s[traced],
            "pass_norm_ms_p50": 1e3 * median(samples),
            "pass_norm_ms_p90": 1e3 * tail(samples),
        }


def tail(samples: list[float]) -> float:
    """90th percentile when at least ten samples lie beyond it, else the median."""
    if len(samples) >= 100:
        return quantiles(samples, n=10)[8]
    return median(samples)


class StageError(Exception):
    def __init__(self, module: str, exc: BaseException):
        super().__init__(f"{type(exc).__name__}: {exc}")
        self.module = module


def call(tr, name: str, fn, *args):
    """One library call inside a span named after its module and function."""
    with tr.span(name):
        try:
            return fn(*args)
        except Exception as exc:  # any library failure becomes a counted operation
            raise StageError(name.split(".")[0], exc) from exc


def cli_captured(argv) -> tuple[int, str]:
    """run_cli in-process, returning the exit code and stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run_cli(list(argv))
    return code, out.getvalue()


def check_golden(tally: Tally, golden: dict) -> None:
    """Full-grid scans, table1 and verify through the warm CLI, against committed digests."""
    for argv in inputs.GOLDEN_FIXED:
        key = inputs.argv_key(argv)
        try:
            code, out = call(NULL, "cli.run_cli", cli_captured, argv)
        except StageError as exc:
            tally.record("golden", False, f"{key}: {exc}")
            continue
        ok = code == 0 and checks.digest(out) == golden.get(key)
        tally.record("golden", ok, f"{key}: exit {code}, stdout digest differs")


# -- survey -------------------------------------------------------------------


def _survey_calls(spec: inputs.SurveyPass, queries: list[EnergyQuery], tr):
    results = []
    for rect in spec.rectangles:
        records = call(tr, "feasibility.scan", scan, rect.Ds, rect.ns, SCHEMES[rect.scheme])
        records = call(tr, "report.sort_records", sort_records, records)
        csv_text = call(tr, "report.render_records_csv", render_records_csv, records)
        from_csv = call(tr, "report.parse_records_csv", parse_records_csv, csv_text)
        json_text = call(tr, "report.render_records_json", render_records_json, records)
        from_json = call(tr, "report.parse_records_json", parse_records_json, json_text)
        results.append((rect, records, from_csv, from_json))
    energies = call(tr, "spectrum.e0_general", lambda: [e0_general(q) for q in queries])
    return results, energies


def _check_records(rect: inputs.Rectangle, records) -> str:
    """Empty when the scan is right, else the first problem found."""
    if len(records) != len(rect.Ds) * len(rect.ns):
        return f"{len(records)} records for a {len(rect.Ds)}x{len(rect.ns)} rectangle"
    keys = [(r.params.n, r.params.D) for r in records]
    if keys != sorted((n, D) for D in rect.Ds for n in rect.ns):
        return "records not in (n, D) order or points missing"
    for r in records:
        D, n, m = r.params.D, r.params.n, r.params.m
        if m != (n if rect.scheme == "mn" else 1) or r.beta != D - 2 * m:
            return f"({D},{n}): m={m}, beta={r.beta}"
        tag = checks.regime(D, n, m)
        if r.outcome.classification.value != tag:
            return f"({D},{n},{m}): {r.outcome.classification.value}, expected {tag}"
        if r.beta <= 0:
            if r.alpha is not None:
                return f"({D},{n},{m}): alpha on a beta <= 0 point"
            continue
        sign, ln_a = checks.ln_alpha(D, m)
        if r.alpha is None or r.alpha.sign != sign or checks.rel_dev(r.alpha.lnmag, ln_a) > checks.CLOSED_FORM_GATE:
            return f"({D},{n},{m}): alpha {r.alpha!r}, expected sign {sign} ln {ln_a!r}"
        if tag == "bound":
            ref = checks.ln_ground_energy(ln_a, r.beta, n, D)
            e = r.outcome.energy
            if e.sign != -1 or checks.rel_dev(e.lnmag, ref) > checks.CLOSED_FORM_GATE:
                return f"({D},{n},{m}): E0 {e!r}, expected ln|E0| {ref!r}"
    return ""


M1_N1_DEFECT = "m = 1 records at n = 1 parse back as scheme mn"


def _round_trip_problem(records, parsed) -> str:
    """Empty when parse(render(x)) == x; names the known defect when it is the only difference.

    The wire format carries no scheme column and the parser reads (n = 1,
    m = 1) as the m = n scheme, so m = 1 records at n = 1 come back with
    the other scheme and nothing else changed.
    """
    if parsed == records:
        return ""
    if len(parsed) != len(records):
        return f"{len(parsed)} records parsed from {len(records)}"
    for a, b in zip(records, parsed):
        if a == b:
            continue
        if not (a.params.scheme is Scheme.M_EQUALS_ONE and a.params.n == 1):
            return f"record ({a.params.D},{a.params.n},{a.params.m}) differs"
        if b != replace(a, params=replace(a.params, scheme=Scheme.M_EQUALS_N)):
            return f"record ({a.params.D},1,1) differs beyond its scheme"
    return M1_N1_DEFECT


def survey(seconds: float, seed: int, tally: Tally, tracer, speed) -> Stats:
    rng = inputs.child_rng(seed, "survey")
    stats = Stats()
    for i in range(max(2, round(seconds * SURVEY_PASSES_PER_S))):
        traced = tracer.enabled and i % 2 == 1
        tr = tracer if traced else NULL
        spec = inputs.survey_pass(rng)
        queries = [
            EnergyQuery(SignedLogReal.from_float(c.alpha), c.beta, c.n, c.D) for c in spec.couplings
        ]
        try:
            with speed.measure() as m, tr.span("survey.pass"):
                results, energies = _survey_calls(spec, queries, tr)
        except StageError as exc:
            tally.record(exc.module, False, str(exc))
            continue
        stats.pass_s[traced].append(m.norm_s)
        stats.add_work(traced, spec.points, m.norm_s, m.cpu_s)
        for rect, records, from_csv, from_json in results:
            problem = _check_records(rect, records)
            tally.record("feasibility", not problem, problem)
            problem = _round_trip_problem(records, from_csv) or _round_trip_problem(records, from_json)
            tally.record(
                "report",
                not problem,
                f"parse(render(x)) != x on {rect.scheme} D {rect.Ds[0]}..{rect.Ds[-1]}"
                f" n {rect.ns[0]}..{rect.ns[-1]}: {problem}",
                known=problem == M1_N1_DEFECT,
            )
        for c, q, out in zip(spec.couplings, queries, energies):
            ref = checks.ln_ground_energy(q.alpha.lnmag, c.beta, c.n, c.D)
            ok = out.is_bound and checks.rel_dev(out.energy.lnmag, ref) <= checks.CLOSED_FORM_GATE
            tally.record("spectrum", ok, f"e0_general{tuple(c)}: {out!r}, expected ln|E| {ref!r}")
    return stats


# -- oracles ------------------------------------------------------------------


def expected_sweep_points(max_n: int, max_D: int) -> int:
    """Bound points the oracle sweep covers: m = n for odd n, m = 1 for every n."""
    count = 0
    for n in range(1, max_n + 1):
        for D in range(2, max_D + 1):
            count += n % 2 == 1 and checks.regime(D, n, n) == "bound"
            count += checks.regime(D, n, 1) == "bound"
    return count


def check_sweep(report, max_n: int, max_D: int) -> str:
    expected = expected_sweep_points(max_n, max_D)
    if len(report.points) != expected:
        return f"{len(report.points)} sweep points, expected {expected}"
    for p in report.points:
        m = p.n if p.scheme is Scheme.M_EQUALS_N else 1
        ref = checks.ln_ground_energy(checks.ln_alpha(p.D, m)[1], p.D - 2 * m, p.n, p.D)
        if checks.rel_dev(p.lnmag_closed, ref) > checks.CLOSED_FORM_GATE:
            return f"({p.D},{p.n}) closed form ln|E| {p.lnmag_closed!r}, expected {ref!r}"
        if p.lnmag_deviation > checks.VEFF_LNMAG_GATE:
            return f"({p.D},{p.n}) ln|E| deviation {p.lnmag_deviation:.3e}"
        if p.r_star_deviation > checks.VEFF_R_STAR_GATE:
            return f"({p.D},{p.n}) r* deviation {p.r_star_deviation:.3e}"
    return ""


def check_minimum(c: inputs.Coupling, q: EnergyQuery, found) -> str:
    ref_e = checks.ln_ground_energy(q.alpha.lnmag, c.beta, c.n, c.D)
    ref_x = checks.ln_r_star(q.alpha.lnmag, c.beta, c.n, c.D)
    if checks.rel_dev(found.e_min.lnmag, ref_e) > checks.VEFF_LNMAG_GATE:
        return f"minimize_v_eff{tuple(c)}: ln|E| {found.e_min.lnmag!r}, expected {ref_e!r}"
    # |d ln r| is the relative deviation of r* and stays finite where r* overflows
    if abs(found.ln_r_star - ref_x) > checks.VEFF_R_STAR_GATE:
        return f"minimize_v_eff{tuple(c)}: ln r* {found.ln_r_star!r}, expected {ref_x!r}"
    return ""


def solve_radial(case: inputs.RadialCase, tally: Tally, speed, tr=NULL):
    """One radial solve, checked against the exact level.

    Returns (normalized seconds, CPU seconds, solution or None).
    """
    error = None
    with speed.measure() as m:
        try:
            with tr.span(f"oracle.radial_ground_state.{case.name}"):
                sol = radial_ground_state(
                    case.D, case.alpha, 1, CONVENTIONS[case.convention], case.excitation
                )
        except Exception as exc:  # counted below, not raised
            error = exc
    if error is not None:
        known = case.known_defect and isinstance(error, NoConvergenceError)
        tally.record("oracle", False, f"{case.name}: {type(error).__name__}: {error}", known=known)
        return m.norm_s, m.cpu_s, None
    exact = checks.exact_radial_level(case.D, case.alpha, case.convention, case.excitation)
    dev = abs(sol.energy - exact) / abs(exact)
    ok = dev <= checks.RADIAL_GATE and sol.nodes == case.excitation
    tally.record("oracle", ok, f"{case.name}: E={sol.energy!r} nodes={sol.nodes}, exact {exact!r}")
    return m.norm_s, m.cpu_s, sol


def radial_mix(seed: int, smoke: bool) -> list[inputs.RadialCase]:
    mix = inputs.radial_mix(inputs.child_rng(seed, "radial"))
    if smoke:  # the two known defects fail within a second; the solvable cases take seconds each
        mix = [c for c in mix if c.known_defect]
    return mix


def _verify_block(rng, max_n: int, max_D: int, tally: Tally, stats: Stats, speed, tr, traced: bool) -> None:
    """One equivalence sweep plus QUERIES_PER_BLOCK extra minimize_v_eff queries."""
    couplings = inputs.veff_queries(rng, QUERIES_PER_BLOCK)
    queries = [EnergyQuery(SignedLogReal.from_float(c.alpha), c.beta, c.n, c.D) for c in couplings]
    found = []
    with speed.measure() as m, tr.span("oracles.verify_block"):
        try:
            report = call(tr, "report.oracle_equivalence_report", oracle_equivalence_report, max_n, max_D)
        except StageError as exc:
            report = exc
        for q in queries:
            try:
                found.append(call(tr, "oracle.minimize_v_eff", minimize_v_eff, q))
            except StageError as exc:
                found.append(exc)
    verified = 0
    if isinstance(report, StageError):
        tally.record(report.module, False, str(report))
    else:
        problem = check_sweep(report, max_n, max_D)
        tally.record("report", not problem, problem)
        verified += len(report.points)
    for c, q, f in zip(couplings, queries, found):
        problem = str(f) if isinstance(f, StageError) else check_minimum(c, q, f)
        tally.record("oracle", not problem, problem)
        verified += not problem
    stats.add_work(traced, verified, m.norm_s, m.cpu_s)


def oracles(seed: int, tally: Tally, tracer, smoke: bool, speed) -> Stats:
    """One pass: the radial mix with one verify block after each solve.

    Interleaving spreads the sweep timings over the same minute as the radial
    pass, so a slow spell of the machine weighs on both alike. With tracing
    on, alternate verify blocks run traced; the radial pass runs untraced and
    its traced twin comes from the probes.
    """
    stats = Stats()
    rng = inputs.child_rng(seed, "veff")
    max_n, max_D = SMOKE_SWEEP if smoke else SWEEP
    norm, cpu = {}, {}
    for block, case in enumerate(radial_mix(seed, smoke)):
        norm[case.name], cpu[case.name], _ = solve_radial(case, tally, speed)
        traced = tracer.enabled and block % 2 == 1
        _verify_block(rng, max_n, max_D, tally, stats, speed, tracer if traced else NULL, traced)
    stats.pass_s[False].append(sum(norm.values()))
    stats.details["radial_case_norm_s"] = norm
    stats.details["radial_case_cpu_s"] = cpu
    return stats


# -- cold-cli -----------------------------------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONIOENCODING"] = "utf-8"
    env.pop("DIMSPEC_THREADS", None)
    return env


def run_child(args: list, root: Path, capture: bool = True, limit_s: float = CHILD_TIMEOUT_S):
    """Run one child to its end; returns (exit code, stdout bytes, stderr bytes).

    The wait blocks in waitpid; the time limit is a timer that kills the
    child, which then exits -9.
    """
    pipe = subprocess.PIPE if capture else None
    proc = subprocess.Popen(args, cwd=root, env=child_env(root), stdout=pipe, stderr=pipe)
    timer = threading.Timer(limit_s, proc.kill)
    timer.start()
    try:
        out, err = proc.communicate()
    finally:
        timer.cancel()
    return proc.returncode, out, err


def cold_run(root: Path, argv, golden: dict, tally: Tally, speed):
    """One fresh ``python -m dimspec`` process, checked; returns its measurement."""
    key = inputs.argv_key(argv)
    with speed.measure() as m:
        code, out, _ = run_child([sys.executable, "-m", "dimspec", *argv], root)
    ok = code == 0 and checks.digest(out.decode("utf-8")) == golden.get(key)
    tally.record("cli", ok, f"{key}: exit {code}, stdout digest differs")
    return m


def cold_cli(seed: int, tally: Tally, tracer, smoke: bool, root: Path, golden: dict, speed) -> Stats:
    """Whole blocks of the six verbs; a pass is one process."""
    rng = inputs.child_rng(seed, "cli")
    stats = Stats()
    by_verb = stats.details["norm_ms_by_verb"] = {}
    for block in range(2 if smoke else CLI_BLOCKS):  # two, so tracing has a traced block
        traced = tracer.enabled and block % 2 == 1
        tr = tracer if traced else NULL
        for verb, argv in inputs.cli_block(rng):
            with tr.span(f"cli.cold.{verb}"):
                m = cold_run(root, argv, golden, tally, speed)
            by_verb.setdefault(verb, []).append(1e3 * m.norm_s)
            stats.pass_s[traced].append(m.norm_s)
            stats.add_work(traced, 1, m.norm_s, m.cpu_s)
    return stats
