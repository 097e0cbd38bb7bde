"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/repeat.py --workload oracles --seeds 1-10
    python3 benchmarks/repeat.py --workload all --seeds 1-10 --summary benchmarks/out/SUMMARY.json

Runs ``run.py`` once per seed, one run at a time, and prints for every metric
the median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread (q3 - q1) / median beside the metric's bound. A spread above a third
of the bound is flagged: the benchmark is meant to stay well inside it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

import metrics

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict], trace: int) -> dict:
    bounds = {m.name: m.bound for m in metrics.END_TO_END}
    names = results[0]["metrics"]
    table = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = quantiles(values, n=4)
        mid = median(values)
        table[name] = {
            "unit": names[name]["unit"],
            "median": mid,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / mid if mid else None,
            "bound": bounds.get(name) if trace == 0 else None,
            "values": values,
        }
    return {
        "runs": len(results),
        "all_correct": all(r["correct"] for r in results),
        "failed": [r["failed"] for r in results],
        "attempted": [r["attempted"] for r in results],
        "metrics": table,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=(*metrics.WORKLOADS, "all"), required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int, default=metrics.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--summary", type=Path, help="also write the summary as JSON here")
    args = p.parse_args()
    workloads = metrics.WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {}
    for workload in workloads:
        results = [run_once(workload, s, args.seconds, args.trace) for s in args.seeds]
        summary[workload] = summarize(results, args.trace)
        print(f"== {workload}: {len(results)} runs, seeds {args.seeds[0]}..{args.seeds[-1]}, "
              f"all correct: {summary[workload]['all_correct']}")
        for name, row in summary[workload]["metrics"].items():
            spread, bound = row["spread"], row["bound"]
            line = f"  {name:<42} median {row['median']:>14.6g} {row['unit']:<6}"
            if spread is not None:
                line += f" spread {spread:.4f}"
            if bound is not None:
                line += f" (bound {bound})"
                # setup_s is checked on its median only, not on its spread
                if name != "setup_s" and spread is not None and spread > bound / 3:
                    line += "  <-- above a third of the bound"
            print(line, flush=True)
    if args.summary:
        args.summary.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
