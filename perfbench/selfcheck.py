"""Check that the output checks can fail: a corrupted reference must give
fail_frac > 0 on every workload.

    python3 perfbench/selfcheck.py [WORKLOAD ...]

Run from the repository root. Writes the corrupted copies under
perfbench/.selfcheck/ and runs one cold round per workload against them.
Exits 1 if any workload reports no failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import WORKLOADS

TMP = os.path.join("perfbench", ".selfcheck")


def corrupt(workload: str, ref: dict) -> None:
    """Change one expected output that every corpus of the workload uses."""
    if workload == "atlas_bound":
        ref["atlas_bound"][-1]["equality_class"].pop()
    elif workload == "spectrum":
        ref["spectrum"]["verify"][0][5] += 1
    elif workload == "hochster_random":
        for pool in ("dev", "heldout"):
            for items in ref["hochster_random"][pool].values():
                for item in items:
                    item["pd"] += 1
    else:
        ref["invariants"]["families"][0]["record"]["matching"] += 1


def main() -> int:
    os.makedirs(TMP, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p)
    bad = []
    for workload in sys.argv[1:] or WORKLOADS:
        with open(os.path.join("perfbench", "reference",
                               workload + ".json")) as fh:
            ref = json.load(fh)
        corrupt(workload, ref)
        path = os.path.join(TMP, workload + ".json")
        with open(path, "w") as fh:
            json.dump(ref, fh)
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "worker.py"),
             "--workload", workload, "--seed", "1", "--reference", path],
            env=env, capture_output=True, text=True, timeout=170, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        frac = res["failed"] / res["attempted"]
        print(f"{workload}: corrupted reference gives fail_frac {frac:.4f} "
              f"({res['failed']}/{res['attempted']})")
        if not res["failed"]:
            bad.append(workload)
    if bad:
        print(f"checks did not catch the corruption: {bad}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
