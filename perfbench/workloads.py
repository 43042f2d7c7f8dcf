"""The four workloads: corpus from a seed, the timed phase, output checks.

Every workload is a closed loop with one client: the next call starts when
the previous one returns, in one thread of one fresh interpreter. A
workload gives its timed phase as a list of calls, built for a package: the
program (`edgeideals`, from src/) or the control (`edgeideals_control`, the
frozen copy of the seed code in perfbench/control). Only the program's
outputs are checked.

Corpora of the two random workloads are drawn from pools of seeded G(n, p)
graphs stored, with their reference outputs, in `reference/`. A seed
draws a stratified sample: a fixed count per (n, p[, field]) stratum, so the
amount of work barely depends on the seed while the graphs do. The held-out
seed draws a disjoint pool that no other seed can reach.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import importlib.util
import io
import json
import random
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import edgeideals  # noqa: F401  (loads every module before the timed phase)
from edgeideals import families, gio, homology, spectrum

HELD_OUT_SEED = 1_000_003

# Each round is kept to a few seconds, so that a run holds many cold rounds
# (see run.py).
BOUND_N = 7             # atlas_bound: verify_bound(BOUND_N, exhaustive=True)
PDR_N = 6               # spectrum: pdr_spectrum(PDR_N) ...
SPECTRUM_N = 12         # ... then verify_spectrum(SPECTRUM_N)

# hochster_random: (n, p, characteristic, count). Fields rotate
# GF(2), GF(2), Q, GF(3), so each (n, p) cell holds them 2 : 1 : 1.
_HOCHSTER_CELLS = {9: 5, 10: 3}  # n -> count per field share
HOCHSTER_STRATA = tuple(
    (n, p, char, share * weight)
    for n, share in _HOCHSTER_CELLS.items()
    for p in (0.2, 0.3, 0.5)
    for char, weight in ((2, 2), (0, 1), (3, 1)))
DUAL_P = 0.35
DUAL_STRATA = ((8, 2), (9, 2))  # (n, count) of isolate-free dual_check graphs

# invariants: (n, p, count) plus fixed family members.
_INVARIANT_COUNTS = {14: 4, 15: 4, 16: 4, 17: 4, 18: 2, 19: 2, 20: 2,
                     21: 1, 22: 1, 23: 1}
INVARIANT_STRATA = tuple((n, p, count)
                         for n, count in _INVARIANT_COUNTS.items()
                         for p in (0.15, 0.3, 0.5, 0.7))
INVARIANT_FAMILIES = (("path", 20), ("path", 25), ("path", 30),
                      ("pendant_clique", 4), ("pendant_clique", 5),
                      ("pendant_clique", 6))
POOL_FACTOR = 2  # dev candidates per stratum, as a multiple of its count


def hochster_key(n, p, char):
    return f"n={n},p={p},char={char}"


def dual_key(n):
    return f"n={n}"


def invariant_key(n, p):
    return f"n={n},p={p}"


def family_graph(kind, size):
    return (families.path_graph(size) if kind == "path"
            else families.pendant_clique(size))


def cover_bound(n: int) -> int:
    """ceil(2*sqrt(n) - 2), as the least t with (t + 2)^2 >= 4n."""
    t = 0
    while (t + 2) ** 2 < 4 * n:
        t += 1
    return t


class Checks:
    """Counts checks attempted and failed; keeps the first few messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)


MODULES = ("atlas", "betti", "cli", "gio", "homology")
CONTROL = "edgeideals_control"


def package(control: bool = False) -> SimpleNamespace:
    """The modules a workload calls: the program's, or with `control` the
    frozen seed copy's, imported under its own name so that both can live
    in one process with caches of their own."""
    name = "edgeideals"
    if control:
        name = CONTROL
        if name not in sys.modules:
            init = Path(__file__).resolve().parent / "control" / \
                "edgeideals" / "__init__.py"
            spec = importlib.util.spec_from_file_location(
                name, init, submodule_search_locations=[str(init.parent)])
            sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(sys.modules[name])
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}")
                              for m in MODULES})


class Timings:
    """Wall and CPU milliseconds of each call of a round's timed phase."""

    def __init__(self):
        self.wall_ms: list[float] = []
        self.cpu_ms: list[float] = []

    def call(self, fn):
        """fn(), or the exception it raised, timed as one item."""
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a raising call is a failed check, not a crash
            result = exc
        self.wall_ms.append((time.perf_counter() - start) * 1000)
        self.cpu_ms.append((time.process_time() - cpu) * 1000)
        return result


def _draw(pool: dict, keys, rng: random.Random | None):
    """Stratified sample of (key, count) strata: `count` items per key, the
    whole held-out pool when rng is None."""
    out = []
    for key, count in keys:
        items = pool[key]
        out.extend(items if rng is None else rng.sample(items, count))
    return out


def _pool_and_rng(seed: int):
    if seed == HELD_OUT_SEED:
        return "heldout", None, random.Random(seed)
    rng = random.Random(seed)
    return "dev", rng, rng


def _oracles():
    tests = str(Path("tests").resolve())
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import oracles
    return oracles


# --------------------------------------------------------------- atlas_bound

class AtlasBound:
    """verify_bound(7, exhaustive=True) from a cold start: one call."""

    def __init__(self, ref: dict, seed: int):
        self.ref = ref  # no input graphs: the seed changes nothing here

    def calls(self, pkg: SimpleNamespace) -> list:
        return [lambda: pkg.atlas.verify_bound(BOUND_N, exhaustive=True)]

    def check(self, outs, checks: Checks) -> None:
        reports, = outs
        if isinstance(reports, Exception):
            checks.expect(False, f"verify_bound raised {reports!r}")
            return
        counts = self.ref["isolate_free_counts"]
        expected = self.ref["atlas_bound"]
        checks.expect(len(reports) == len(expected),
                      f"{len(reports)} reports, expected {len(expected)}")
        oracles = _oracles()
        for rep, exp in zip(reports, expected):
            n = exp["n"]
            checks.expect(rep.n == n, f"report n={rep.n}, expected {n}")
            checks.expect(rep.classes_visited == counts[str(n)],
                          f"n={n}: {rep.classes_visited} classes, "
                          f"ISOLATE_FREE_COUNTS says {counts[str(n)]}")
            checks.expect(rep.classes_visited == exp["classes_visited"],
                          f"n={n}: classes_visited differs from reference")
            checks.expect(list(rep.violations) == exp["violations"] == [],
                          f"n={n}: violations {rep.violations}")
            checks.expect(list(rep.equality_class) == exp["equality_class"],
                          f"n={n}: equality class differs from reference")
            if n <= 5:
                for g6 in rep.equality_class:
                    covers = oracles.minimal_covers_bruteforce(
                        gio.from_graph6(g6))
                    checks.expect(max(map(len, covers)) == cover_bound(n),
                                  f"oracle: {g6} is not on the bound")


# ------------------------------------------------------------------ spectrum

class Spectrum:
    """pdr_spectrum(6) then verify_spectrum(12), from a cold start."""

    def __init__(self, ref: dict, seed: int):
        self.ref = ref  # no input graphs: the seed changes nothing here

    def calls(self, pkg: SimpleNamespace) -> list:
        return [lambda: pkg.atlas.pdr_spectrum(PDR_N),
                lambda: pkg.atlas.verify_spectrum(SPECTRUM_N)]

    def check(self, out, checks: Checks) -> None:
        for call in out:
            if isinstance(call, Exception):
                checks.expect(False, f"spectrum workload raised {call!r}")
                return
        rep, spectrum_checks = out
        exp = self.ref["spectrum"]
        counts = self.ref["isolate_free_counts"]
        checks.expect(rep.classes_visited == counts[str(PDR_N)],
                      f"pdr_spectrum visited {rep.classes_visited} classes")
        points = [[pt.p, pt.r, pt.graph6()] for pt in rep.points]
        checks.expect(points == exp["pdr_points"],
                      "pdr_spectrum points differ from reference")
        checks.expect(rep.row(1) == rep.expected_r1_row()
                      == set(range(cover_bound(PDR_N), PDR_N)),
                      f"r = 1 row {sorted(rep.row(1))} is not expected_r1_row")
        checks.expect([list(v) for v in rep.conjecture_violations()]
                      == exp["conjecture_violations"],
                      "conjecture violations differ from reference")
        got = [[c.n, c.p, c.tau_max, c.chordal, c.gap_free, c.pd, c.reg]
               for c in spectrum_checks]
        checks.expect(len(got) == len(exp["verify"]),
                      f"{len(got)} spectrum checks, expected "
                      f"{len(exp['verify'])}")
        for row, want in zip(got, exp["verify"]):
            checks.expect(row == want, f"verify_spectrum {row} != {want}")
        for c in spectrum_checks:
            checks.expect(c.ok, f"verify_spectrum n={c.n} p={c.p} not ok")
        oracles = _oracles()
        for c in spectrum_checks:
            if c.n <= 6:
                table = oracles.betti_table_naive(
                    spectrum.build_spectrum_graph(c.n, c.p), 2)
                pd = max(i for i, _ in table)
                reg = max(j - i for i, j in table)
                checks.expect((pd, reg) == (c.pd, c.reg),
                              f"oracle: spectrum n={c.n} p={c.p} gives "
                              f"({pd}, {reg})")


# ----------------------------------------------------------- hochster_random

class HochsterRandom:
    """betti_table on a stratified sample of seeded G(n, p), n = 9, 10,
    plus a few dual_check calls on isolate-free n = 8, 9 graphs."""

    def __init__(self, ref: dict, seed: int):
        pool, sample_rng, order_rng = _pool_and_rng(seed)
        section = ref["hochster_random"]
        tables = _draw(section[pool],
                       [(hochster_key(n, p, c), k)
                        for n, p, c, k in HOCHSTER_STRATA], sample_rng)
        duals = _draw(section["dual_" + pool],
                      [(dual_key(n), k) for n, k in DUAL_STRATA],
                      sample_rng)
        self.items = ([("betti", e, homology.FieldSpec(e["char"]))
                       for e in tables]
                      + [("dual", e, homology.GF2) for e in duals])
        order_rng.shuffle(self.items)
        self.graphs = [gio.from_graph6(e["g6"]) for _, e, _ in self.items]

    def calls(self, pkg: SimpleNamespace) -> list:
        def call(name, g, field):  # looked up late, so tracing sees it
            return getattr(pkg.betti, name)(g, field)
        return [functools.partial(
                    call, "betti_table" if kind == "betti" else "dual_check",
                    pkg.gio.from_graph6(e["g6"]),
                    pkg.homology.FieldSpec(field.characteristic))
                for kind, e, field in self.items]

    def check(self, outs, checks: Checks) -> None:
        smallest = None
        for (kind, exp, field), g, out in zip(self.items, self.graphs, outs):
            tag = f"{kind} {exp['g6']} char={field.characteristic}"
            if isinstance(out, Exception):
                checks.expect(False, f"{tag} raised {out!r}")
                continue
            if kind == "dual":
                got = [out.reg_dual, out.pd_primal, out.tau_max]
                checks.expect(got == exp["dual"], f"{tag}: {got}")
                checks.expect(out.identity_holds, f"{tag}: Terai fails")
                checks.expect(out.dominates_tau, f"{tag}: reg < tau_max")
                continue
            entries = sorted([i, j, b] for (i, j), b in out.entries.items())
            checks.expect(entries == exp["entries"],
                          f"{tag}: Betti table differs from reference")
            checks.expect([out.pd, out.reg] == [exp["pd"], exp["reg"]],
                          f"{tag}: (pd, reg) differs from reference")
            checks.expect(out.entry(0, 0) == 1, f"{tag}: beta_00 != 1")
            checks.expect(out.entry(1, 2) == g.m, f"{tag}: beta_12 != m")
            if g.m:
                alt = sum((-1) ** i * b for (i, _), b in out.entries.items())
                checks.expect(alt == 0, f"{tag}: alternating sum {alt}")
            checks.expect(out.pd >= exp["tau_max"], f"{tag}: pd < tau_max")
            checks.expect(out.reg >= exp["induced_matching"],
                          f"{tag}: reg < induced matching number")
            if field.characteristic == 2 and (
                    smallest is None or (g.n, g.m) < (smallest[0].n,
                                                      smallest[0].m)):
                smallest = (g, out)
        if smallest is not None:
            g, out = smallest
            naive = _oracles().betti_table_naive(g, 2)
            checks.expect(naive == out.entries,
                          f"oracle: Betti table of {gio.to_graph6(g)}")


# ---------------------------------------------------------------- invariants

def invariants_cli(line: str, pkg: SimpleNamespace | None = None
                   ) -> tuple[int, str]:
    """`edgeideals invariants --graph -` in process with `line` on stdin:
    (exit code, stdout)."""
    pkg = pkg or package()
    stdin, sys.stdin = sys.stdin, io.StringIO(line)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = pkg.cli.main(["invariants", "--graph", "-"])
    finally:
        sys.stdin = stdin
    return rc, buf.getvalue()


class Invariants:
    """cli.main(["invariants", "--graph", "-"]) in process, one graph6
    line on stdin per call."""

    def __init__(self, ref: dict, seed: int):
        pool, sample_rng, order_rng = _pool_and_rng(seed)
        section = ref["invariants"]
        self.items = _draw(section[pool],
                           [(invariant_key(n, p), k)
                            for n, p, k in INVARIANT_STRATA], sample_rng)
        self.items += section["families"]
        order_rng.shuffle(self.items)
        self.lines = [e["g6"] + "\n" for e in self.items]

    def calls(self, pkg: SimpleNamespace) -> list:
        return [functools.partial(invariants_cli, line, pkg)
                for line in self.lines]

    def check(self, outs, checks: Checks) -> None:
        smallest = None
        for exp, out in zip(self.items, outs):
            tag = f"invariants {exp['g6']}"
            if isinstance(out, Exception) or out[0] != 0:
                checks.expect(False, f"{tag}: gave {out!r}")
                continue
            text = out[1]
            try:
                record = json.loads(text)
            except ValueError:
                record = None
            if not isinstance(record, dict):
                checks.expect(False, f"{tag}: output is not a JSON record")
                continue
            checks.expect(record == exp["record"],
                          f"{tag}: record differs from reference")
            checks.expect(record.get("tau_max", -1) + record.get("i", -1)
                          == record.get("n"),
                          f"{tag}: tau_max + i != n")
            if smallest is None or exp["record"]["m"] < smallest[1]["m"]:
                smallest = (exp["g6"], record)
        if smallest is not None:
            oracles = _oracles()
            g6, record = smallest
            g = gio.from_graph6(g6)
            covers = oracles.minimal_covers_bruteforce(g)
            checks.expect(
                [max(map(len, covers)), len(covers)]
                == [record["tau_max"], record["num_minimal_covers"]],
                f"oracle: minimal covers of {g6}")
            checks.expect(oracles.matching_bruteforce(g) == record["matching"],
                          f"oracle: matching number of {g6}")
            checks.expect(oracles.induced_matching_bruteforce(g)
                          == record["induced_matching"],
                          f"oracle: induced matching number of {g6}")


WORKLOAD_CLASSES = {"atlas_bound": AtlasBound,
                    "hochster_random": HochsterRandom,
                    "spectrum": Spectrum,
                    "invariants": Invariants}
