#!/usr/bin/env python3
"""Self-check for the benchmark.

For each workload: two traced runs with the same seed must report
identical counts, a short untimed-loop run must pass its output checks,
and the metric names of both result lines must be exactly those declared
in BENCHMARK.json.

Usage (from the repository root):

    python3 perfbench/selfcheck.py [--seed N] [workload ...]

Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
COUNT_UNITS = {"count", "flop", "B"}
# ratios of two counts, so they repeat exactly as well
COUNT_RATIOS = {"kernel.useful_frac", "normal_form.reduce.repeat_frac"}


def run(workload, seed, trace, seconds=3):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description="Self-check for the benchmark.")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    declared = {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}
    problems = []
    for workload in args.workloads:
        timed = run(workload, args.seed, trace=0)
        first = run(workload, args.seed, trace=1)
        second = run(workload, args.seed, trace=1)
        for label, result, key in (("timed", timed, "end_to_end"), ("traced", first, "per_layer")):
            if set(result["metrics"]) != set(declared[key]):
                problems.append(f"{workload} {label}: metric names differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} {label}: {result['failed']} failed items")
        counts = [name for name, unit in declared["per_layer"].items()
                  if unit in COUNT_UNITS or name in COUNT_RATIOS]
        for name in counts:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} differs between traced runs ({a} vs {b})")
        print(f"{workload}: {len(counts)} counts compared across two traced runs")
    for problem in problems:
        print("FAIL " + problem)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
