"""dimspec benchmark: one seeded workload, end-to-end or per-module figures.

    python3 benchmarks/run.py --workload survey --seed 1 --seconds 20 --trace 0

Run from the repository root. The library is imported from ``src/`` of the
same tree; nothing is installed. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-module metrics and the tracing overhead. Human-readable
lines go first; the last line of stdout is the JSON result. A result file
with the environment goes to ``benchmarks/out/``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_WORKERS = 9


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("survey", "oracles", "cold-cli"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--seconds", type=float, default=20.0,
        help="sizes the survey workload (round(seconds * 6) passes); oracles is one pass and "
        "cold-cli 102 processes whatever it is",
    )
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny run for the self-tests")
    p.add_argument(
        "--write-golden", action="store_true",
        help="rewrite golden.json from the current source, then exit",
    )
    args = p.parse_args(argv)
    if not args.write_golden and args.workload is None:
        p.error("--workload is required")
    return args


def git_commit(root: Path):
    """HEAD's commit read from .git without running git; None outside a clone."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import mpmath
    import numpy

    source = hashlib.sha256()
    for path in sorted((SRC / "dimspec").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": git_commit(ROOT),
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def setup_seconds(workers: int, speed) -> tuple[list[float], list[float]]:
    """Normalized and raw CPU seconds of fresh interpreters that import dimspec
    and warm each module up."""
    from workloads import run_child

    norm, raw = [], []
    for _ in range(workers):
        with speed.measure() as m:
            code, _, _ = run_child([sys.executable, str(HERE / "warmup.py")], ROOT, capture=False)
        if code != 0:
            raise SystemExit(f"benchmark: set-up worker exited {code}")
        norm.append(m.norm_s)
        raw.append(m.cpu_s)
    return norm, raw


def write_golden() -> int:
    import checks
    import inputs
    from workloads import cli_captured

    golden = {}
    for argv in inputs.all_golden_argvs():
        code, out = cli_captured(argv)
        if code != 0:
            print(f"golden: {inputs.argv_key(argv)} exits {code}", file=sys.stderr)
            return 1
        golden[inputs.argv_key(argv)] = checks.digest(out)
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {checks.GOLDEN_PATH.relative_to(ROOT)}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dimspec" / "__init__.py").is_file():
        print(f"benchmark: no dimspec source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("DIMSPEC_THREADS", None)  # the serial scan is the default every workload measures
    import dimspec

    if Path(dimspec.__file__).resolve().parent != SRC / "dimspec":
        print(f"benchmark: imported dimspec from {dimspec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.write_golden:
        return write_golden()

    import checks
    from speed import Speed, pin_to_one_core

    env = environment(args.seed)
    golden = checks.load_golden()
    cores = pin_to_one_core()
    env["pinned_to_core"] = min(cores)
    with Speed() as speed:
        result, record = measure(args, env, golden, cores, speed)

    for note in record["notes"]:
        print(f"note: {note}", file=sys.stderr)
    for name, entry in result["metrics"].items():
        print(f"{name:<44} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{'ops attempted / failed':<44} {result['attempted']:>10} / {result['failed']}"
          f" (correct={result['correct']})")
    print(json.dumps(result, allow_nan=False))
    return 0


def measure(args, env: dict, golden: dict, cores: set, speed) -> tuple[dict, dict]:
    """Set-up, the workload and, when traced, the probes; returns the result
    line and the result file, which is written here."""
    import metrics
    import probes
    import workloads
    from tracing import NULL, Tracer
    from warmup import warm_up

    setup, setup_cpu = setup_seconds(1 if args.smoke else SETUP_WORKERS, speed)
    warm_up()
    tally = workloads.Tally()
    workloads.check_golden(tally, golden)

    tracer = Tracer() if args.trace else NULL
    if args.workload == "survey":
        stats = workloads.survey(args.seconds, args.seed, tally, tracer, speed)
    elif args.workload == "oracles":
        stats = workloads.oracles(args.seed, tally, tracer, args.smoke, speed)
    else:
        stats = workloads.cold_cli(args.seed, tally, tracer, args.smoke, ROOT, golden, speed)

    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if args.workload == "cold-cli" else resource.RUSAGE_SELF
    )
    figures = stats.figures(traced=False)
    attempted = sum(tally.attempted.values())
    values = {
        "setup_s": median(setup),
        **figures,
        "ops_ok_ratio": (attempted - sum(tally.failed.values())) / attempted,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    wanted = metrics.END_TO_END
    extra = {}
    if args.trace:
        values = probes.run(tracer, args.seed, tally, ROOT, golden, args.smoke, cores, speed)
        if args.workload == "oracles":
            # one untraced pass per run: the probes' traced radial mix is the traced pass
            stats.pass_s[True].append(
                sum(v for k, v in values.items() if k.startswith(probes.RADIAL_PREFIX))
            )
        traced = stats.figures(traced=True)
        for name in metrics.OVERHEAD_OF:  # as a cost: above 1 means tracing slowed it
            ratio = traced[name] / figures[name]
            values[f"trace.overhead.{name}"] = 1 / ratio if name == "work_per_norm_s" else ratio
        values["trace.spans"] = len(tracer.spans)
        wanted = metrics.PER_LAYER
        extra = {"untraced": figures, "traced": traced, "self_time": tracer.self_times()}

    # failures in the probes count too, so totals are taken again
    result = {
        "correct": tally.unexpected == 0,
        "attempted": sum(tally.attempted.values()),
        "failed": sum(tally.failed.values()),
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in wanted if m.name in values
        },
    }
    env["loadavg_end"] = list(os.getloadavg())
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_s{args.seed}_t{args.trace}{'_smoke' if args.smoke else ''}"
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": env,
        "result": result,
        "setup_samples_norm_s": setup,
        "setup_samples_cpu_s": setup_cpu,
        "pass_samples": {"untraced": len(stats.pass_s[False]), "traced": len(stats.pass_s[True])},
        "raw_cpu_work_per_s": stats.work[False] / stats.cpu_s[False],
        "speed": speed.summary(),
        "ops_by_module": tally.by_module(),
        "details": stats.details,
        "notes": tally.notes,
        **extra,
    }
    if args.trace:
        tracer.write(OUT / f"TRACE_{stem}.jsonl")
    (OUT / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1, allow_nan=False) + "\n")
    return result, record


if __name__ == "__main__":
    sys.exit(main())
