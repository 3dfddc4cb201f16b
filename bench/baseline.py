#!/usr/bin/env python3
"""Run the benchmark over several seeds and record the results.

    python3 bench/baseline.py --out bench/BASELINE.json

For each workload of ``BENCHMARK.json`` this runs ``run.py`` for its
``run_seconds``, untraced once per seed (1..10) and traced once (seed 1),
one run at a time, and records every metric with the
median, quartiles and quartile spread (Q3 - Q1 over the median, from
``statistics.quantiles(values, n=4)``) of the untraced runs, beside the
program's commit, ``nproc`` and the Python version.  It prints each
spread against the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"error: {workload} seed {seed} trace {trace}: {result['failed']} jobs failed")
    return result


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", help="write the record here (JSON)")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
            print(f"{workload:<9} {name:<20} median {median:>14.6g}  spread {spread:7.4f}"
                  f"  bound/3 {bounds[name] / 3:7.4f}  {'ok' if spread < bounds[name] / 3 else 'WIDE'}")
        traced = bench(workload, 1, spec["run_seconds"], 1)
        record["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs],
            "end_to_end": summary,
            "per_layer_seed_1": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
