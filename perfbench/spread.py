"""Run-to-run spread of the end-to-end metrics, for setting bounds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]

Runs perfbench/run.py once per seed, one run at a time, and prints for each
metric the median of the runs and the spread: the distance between the first
and third quartiles (statistics.quantiles(values, n=4)) as a share of the
median, then the same summary as one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10",
                    help="inclusive range a-b of seeds, one run each")
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args()
    lo, hi = map(int, args.seeds.split("-"))

    values: dict[str, list[float]] = {}
    for seed in range(lo, hi + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=200)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stderr, file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v[-1]:.4g}" for k, v in values.items()), file=sys.stderr)

    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": med, "spread": (q3 - q1) / med if med else 0.0,
                         "min": min(vals), "max": max(vals)}
        print(f"{name:14s} median {med:12.5g}  spread "
              f"{summary[name]['spread']:.4f}  range {min(vals):.5g} .. "
              f"{max(vals):.5g}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "seconds": args.seconds,
                      "python": platform.python_version(),
                      "cpus": os.cpu_count(), "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
