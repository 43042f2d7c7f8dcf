"""edgeideals benchmark: one workload, cold rounds, timed against a control.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each round is a fresh interpreter
(perfbench/worker.py), because the CLI and the acceptance suite both start
cold: the atlas cache and the process-wide homology memo begin empty.
Rounds of one corpus run one after another (one client, closed loop) for
about S seconds; a round starts only if it should end by then.

The host this runs on slows a process by up to 1.8x, in bursts from tens of
milliseconds to tens of seconds, as other work on the machine comes and
goes. A time in seconds therefore does not repeat from run to run. So
every call of the program in src/ is made back to back with the same call
of the control, a frozen copy of the seed code in perfbench/control, in the
same round (worker.py --control), and each timing metric is program /
control: 1.0 is the seed code's speed, and the host's speed cancels. The
side that goes first alternates from call to call and from round to round.
Each metric is the median over the run's rounds of that round's ratio.

A run starts with SETUP_PROBES set-up-only rounds and one round of the
program alone, which gives peak_rss_mib. setup_s, in seconds, is the median
set-up time of the program over every round of the run.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced rounds of the program alone and prints the per-layer metrics of the
traced ones (medians over those rounds), plus the tracing overhead (median
traced minus median untraced wall time of the timed phase). Human-readable
detail goes to stderr; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("atlas_bound", "hochster_random", "spectrum", "invariants")
SETUP_PROBES = 9
DEADLINE_S = 170  # the whole run, set-up probes included, ends before this
REQUIRED = ("src/edgeideals/__init__.py", "tests/oracles.py",
            "perfbench/control/edgeideals/__init__.py")


class RoundFailed(Exception):
    pass


def _worker(workload: str, seed: int, extra: list[str], timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join("perfbench", "worker.py"),
           "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"round timed out after {exc.timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"worker exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated inside the sample range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in REQUIRED + (
        f"perfbench/reference/{args.workload}.json",) if not os.path.isfile(p)]
    if missing:
        print(f"not a checkout of edgeideals: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    start = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    results: list[dict] = []
    broken: list[str] = []

    def one(extra: list[str]) -> dict | None:
        try:
            res = _worker(args.workload, args.seed, extra, remaining())
        except RoundFailed as exc:
            broken.append(str(exc))
            return None
        results.append(res)
        return res

    for _ in range(SETUP_PROBES):
        one(["--setup-only"])
    solo = one([])
    untraced: list[dict] = [solo] if solo else []
    timed: list[dict] = []  # traced rounds, or rounds against the control
    last = 0.0
    while not broken:
        if timed and (time.monotonic() - start + last > args.seconds
                      or remaining() < 2 * last):
            break  # the next round would end past --seconds
        t = time.monotonic()
        if args.trace:
            res = one(["--trace"])
            if res is not None:
                timed.append(res)
                res = one([])
                if res is not None:
                    untraced.append(res)
        else:
            res = one(["--control", "--round", str(len(timed))])
            if res is not None:
                timed.append(res)
        last = time.monotonic() - t

    if not timed or not untraced:
        print("no round completed: " + "; ".join(broken), file=sys.stderr)
        return 1

    rounds = [r for r in results if "attempted" in r]
    attempted = sum(r["attempted"] for r in rounds) + len(broken)
    failed = sum(r["failed"] for r in rounds) + len(broken)
    for r in rounds:
        for msg in r["failures"]:
            print(f"check failed: {msg}", file=sys.stderr)
    for msg in broken:
        print(f"round failed: {msg}", file=sys.stderr)

    def median(f) -> float:
        return statistics.median(f(r) for r in timed)

    if args.trace:
        metrics = {name: median(lambda r: r["layers"][name])
                   for name in timed[0]["layers"]}
        metrics["trace.overhead_s"] = median(lambda r: r["wall_s"]) - (
            statistics.median(r["wall_s"] for r in untraced))
    else:
        metrics = {
            "wall_ratio": median(
                lambda r: sum(r["items_ms"]) / sum(r["control_ms"])),
            "cpu_ratio": median(
                lambda r: sum(r["items_cpu_ms"]) / sum(r["control_cpu_ms"])),
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "item_p50_ratio": median(
                lambda r: (_quantile(r["items_ms"], 50)
                           / _quantile(r["control_ms"], 50))),
            "item_p90_ratio": median(
                lambda r: (_quantile(r["items_ms"], 90)
                           / _quantile(r["control_ms"], 90))),
            "peak_rss_mib": solo["peak_rss_mib"],
            "pass_frac": 1 - failed / attempted,
        }
        print(f"{args.workload}: {len(timed)} rounds against the control, "
              f"{len(timed[0]['items_ms'])} calls each, "
              f"{len(results)} set-ups; median timed phase "
              f"{median(lambda r: sum(r['items_ms'])) / 1000:.4g} s program, "
              f"{median(lambda r: sum(r['control_ms'])) / 1000:.4g} s "
              f"control; fail_frac {failed / attempted:.6f} "
              f"({failed}/{attempted})", file=sys.stderr)
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "metrics.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["metrics"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
