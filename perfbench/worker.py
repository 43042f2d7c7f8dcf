"""One cold round of one workload, in a fresh interpreter.

Run from the repository root with `src` on PYTHONPATH (run.py does this):

    python3 perfbench/worker.py --workload NAME --seed N
        [--setup-only | --trace | --control --round K]

Phases, in order: set-up (import edgeideals, load the reference outputs,
build the corpus from the seed), the timed phase, then the output checks,
which are not timed. Each call of the timed phase is timed on its own, in
wall and CPU time.

--control also loads the control, the frozen copy of the seed code in
perfbench/control, and makes each call of the program and of the control
back to back, the program first when the call's index plus K is even.
Both see the same moment of the host, so its speed changes cancel in their
ratio. Only the program's outputs are checked, and setup_s covers only the
program's set-up. Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true",
                    help="wrap every layer function and report spans")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up; report setup_s alone")
    ap.add_argument("--control", action="store_true",
                    help="interleave each call with the control's")
    ap.add_argument("--reference",
                    help="reference file (default perfbench/reference/"
                         "<workload>.json)")
    ap.add_argument("--round", type=int, default=0,
                    help="with --control: which side goes first")
    args = ap.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads  # imports edgeideals
    path = args.reference or f"perfbench/reference/{args.workload}.json"
    with open(path) as fh:
        ref = json.load(fh)
    workload = workloads.WORKLOAD_CLASSES[args.workload](ref, args.seed)
    calls = workload.calls(workloads.package())
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    controls = (workload.calls(workloads.package(control=True))
                if args.control else [None] * len(calls))
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install()
    prog, ctrl = workloads.Timings(), workloads.Timings()
    outputs = []
    w0 = time.perf_counter()
    for i, (call, control) in enumerate(zip(calls, controls)):
        if control is not None and (i + args.round) % 2:
            ctrl.call(control)
        outputs.append(prog.call(call))
        if control is not None and not (i + args.round) % 2:
            ctrl.call(control)
    wall_s = time.perf_counter() - w0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:  # before the checks, which call the library too
        result["layers"] = tracing.layer_metrics(tracer.spans)

    checks = workloads.Checks()
    workload.check(outputs, checks)
    result.update(
        wall_s=wall_s,
        peak_rss_mib=peak_kib / 1024,
        items_ms=prog.wall_ms,
        items_cpu_ms=prog.cpu_ms,
        control_ms=ctrl.wall_ms,
        control_cpu_ms=ctrl.cpu_ms,
        attempted=checks.attempted,
        failed=checks.failed,
        failures=checks.messages,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
