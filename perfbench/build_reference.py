"""Rebuild the reference outputs and input pools in perfbench/reference/.

Run from the repository root on a commit whose outputs are trusted:

    PYTHONPATH=src python3 perfbench/build_reference.py

It draws the G(n, p) pools of the two random workloads from POOL_SEED
(development candidates first, then a disjoint held-out set per stratum),
records every output the workloads check, and cross-checks the smallest
items against the naive oracles in tests/oracles.py. A disagreement stops
the build. Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.abspath("tests"))

import oracles  # noqa: E402
import test_acceptance  # noqa: E402  (ISOLATE_FREE_COUNTS)
import workloads as W  # noqa: E402
from edgeideals import (atlas, betti, covers, gio, graphs,  # noqa: E402
                        homology)

POOL_SEED = 20_240_917
OUT_DIR = os.path.join("perfbench", "reference")


def _agree(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"reference build stopped: disagreement on {what}")


def _write(name: str, data: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name + ".json"), "w") as fh:
        json.dump(data, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


def _split(cands: list, count: int) -> tuple[list, list]:
    dev, held = cands[:W.POOL_FACTOR * count], cands[W.POOL_FACTOR * count:]
    _agree(not {e["g6"] for e in dev} & {e["g6"] for e in held},
           "a graph in both the development and the held-out pool")
    return dev, held


def _counts() -> dict:
    return {str(n): c for n, c in test_acceptance.ISOLATE_FREE_COUNTS.items()}


def build_atlas_bound() -> dict:
    reports = atlas.verify_bound(W.BOUND_N, exhaustive=True)
    for rep in reports:
        if rep.n <= 6:
            for g6 in rep.equality_class:
                covers_ = oracles.minimal_covers_bruteforce(gio.from_graph6(g6))
                _agree(max(map(len, covers_)) == W.cover_bound(rep.n), g6)
    return {"isolate_free_counts": _counts(),
            "atlas_bound": [{"n": r.n, "classes_visited": r.classes_visited,
                             "violations": list(r.violations),
                             "equality_class": list(r.equality_class)}
                            for r in reports]}


def build_spectrum() -> dict:
    rep = atlas.pdr_spectrum(W.PDR_N)
    checks = atlas.verify_spectrum(W.SPECTRUM_N)
    for c in checks:
        if c.n <= 7:
            table = oracles.betti_table_naive(
                W.spectrum.build_spectrum_graph(c.n, c.p), 2)
            _agree((max(i for i, _ in table), max(j - i for i, j in table))
                   == (c.pd, c.reg), c)
    return {"isolate_free_counts": _counts(),
            "spectrum": {
                "pdr_points": [[pt.p, pt.r, pt.graph6()] for pt in rep.points],
                "conjecture_violations":
                    [list(v) for v in rep.conjecture_violations()],
                "verify": [[c.n, c.p, c.tau_max, c.chordal, c.gap_free,
                            c.pd, c.reg] for c in checks]}}


def build_hochster(rng: random.Random) -> dict:
    out = {"dev": {}, "heldout": {}, "dual_dev": {}, "dual_heldout": {}}
    for n, p, char, count in W.HOCHSTER_STRATA:
        cands = []
        for _ in range((W.POOL_FACTOR + 1) * count):
            g = atlas.random_graph(n, p, rng.randrange(2 ** 62))
            t = betti.betti_table(g, homology.FieldSpec(char))
            if n == 9:
                _agree(oracles.betti_table_naive(g, char) == t.entries, g)
            cands.append({
                "g6": gio.to_graph6(g), "char": char,
                "entries": sorted([i, j, b] for (i, j), b in t.entries.items()),
                "pd": t.pd, "reg": t.reg, "tau_max": covers.tau_max(g),
                "induced_matching": covers.induced_matching_number(g)})
        key = W.hochster_key(n, p, char)
        out["dev"][key], out["heldout"][key] = _split(cands, count)
        print(f"hochster {key}", file=sys.stderr)
    for n, count in W.DUAL_STRATA:
        cands = []
        while len(cands) < (W.POOL_FACTOR + 1) * count:
            g = atlas.random_graph(n, W.DUAL_P, rng.randrange(2 ** 62))
            if graphs.isolated_vertices(g):
                continue
            d = betti.dual_check(g)
            cands.append({"g6": gio.to_graph6(g), "char": 2,
                          "dual": [d.reg_dual, d.pd_primal, d.tau_max]})
        key = W.dual_key(n)
        out["dual_dev"][key], out["dual_heldout"][key] = _split(cands, count)
    return {"hochster_random": out}


def _invariants_record(g) -> dict:
    rc, text = W.invariants_cli(gio.to_graph6(g) + "\n")
    _agree(rc == 0, g)
    record = json.loads(text)
    if g.m <= 16:
        covers_ = oracles.minimal_covers_bruteforce(g)
        _agree([max(map(len, covers_)), len(covers_),
                oracles.matching_bruteforce(g),
                oracles.induced_matching_bruteforce(g)]
               == [record["tau_max"], record["num_minimal_covers"],
                   record["matching"], record["induced_matching"]], g)
    return record


def build_invariants(rng: random.Random) -> dict:
    out = {"dev": {}, "heldout": {}, "families": []}
    for n, p, count in W.INVARIANT_STRATA:
        cands = []
        for _ in range((W.POOL_FACTOR + 1) * count):
            g = atlas.random_graph(n, p, rng.randrange(2 ** 62))
            cands.append({"g6": gio.to_graph6(g),
                          "record": _invariants_record(g)})
        key = W.invariant_key(n, p)
        out["dev"][key], out["heldout"][key] = _split(cands, count)
        print(f"invariants {key}", file=sys.stderr)
    for kind, size in W.INVARIANT_FAMILIES:
        g = W.family_graph(kind, size)
        out["families"].append({"g6": gio.to_graph6(g),
                                "record": _invariants_record(g)})
    return {"invariants": out}


def main() -> int:
    # One generator per random workload, so rebuilding one leaves the
    # other's pool unchanged.
    builders = {
        "atlas_bound": build_atlas_bound,
        "spectrum": build_spectrum,
        "hochster_random": lambda: build_hochster(random.Random(POOL_SEED)),
        "invariants": lambda: build_invariants(random.Random(POOL_SEED + 1)),
    }
    for name in sys.argv[1:] or builders:
        _write(name, builders[name]())
        print(f"wrote {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
