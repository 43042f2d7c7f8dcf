"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy shared piece is
the isomorph-free atlas up to n = 9, built once per process and reused.
"""

import time
from pathlib import Path

import pytest

from edgeideals.atlas import (canonical_bits, enumerate_graphs, pdr_spectrum,
                              random_graph, verify_bound,
                              verify_classification, verify_spectrum)
from edgeideals.betti import (betti_table, dual_check, pd_and_reg)
from edgeideals.covers import (enumerate_minimal_covers,
                               induced_matching_number, matching_number,
                               tau_max)
from edgeideals.families import (cycle_graph, path_graph, pendant_clique,
                                 two_k2)
from edgeideals.gio import from_graph6
from edgeideals.graphs import is_chordal, isolated_vertices
from edgeideals.homology import (GF2, GF3, QQ, homology_dims,
                                 independence_complex,
                                 reduced_euler_characteristic)
from edgeideals.spectrum import build_pdr_graph, pdr_range
from oracles import betti_table_naive, minimal_covers_bruteforce

pytestmark = pytest.mark.acceptance

# no-isolated class counts derived from the published unlabeled counts
ISOLATE_FREE_COUNTS = {2: 1, 3: 2, 4: 7, 5: 23, 6: 122, 7: 888, 8: 11302,
                       9: 262322}


def _report(name, ok, started, budget_s, detail=""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {name}: {status} ({elapsed:.1f}s)"
          + (f" -- {detail}" if detail else ""))
    assert ok, f"{name} failed: {detail}"
    assert elapsed <= budget_s, f"{name} exceeded {budget_s}s budget ({elapsed:.0f}s)"


def _seeded_corpus(count=1000, seed=424242):
    import random as _random
    rng = _random.Random(seed)
    probs = (0.15, 0.3, 0.5, 0.7, 0.85)
    out = []
    while len(out) < count:
        n = rng.randint(2, 8)
        g = random_graph(n, probs[len(out) % len(probs)], rng.randrange(2 ** 62))
        if not isolated_vertices(g):
            out.append(g)
    return out


def test_criterion_1_bound_exhaustive():
    t0 = time.perf_counter()
    reports = verify_bound(9, exhaustive=True)
    counts_ok = all(r.classes_visited == ISOLATE_FREE_COUNTS[r.n]
                    for r in reports)
    no_violations = all(not r.violations for r in reports)
    total = sum(r.classes_visited for r in reports)
    _report("1 (bound, n=2..9)", counts_ok and no_violations, t0, 600,
            f"{total} isolate-free classes, 0 violations")


def test_criterion_2_classification():
    t0 = time.perf_counter()
    rep4 = verify_classification(4)
    expected4 = {canonical_bits(g.masks, 4)
                 for g in (two_k2(), cycle_graph(4), path_graph(3))}
    got4 = {canonical_bits(from_graph6(s).masks, 4)
            for s in rep4.equality_class}
    ok4 = not rep4.mismatches and got4 == expected4
    rep9 = verify_classification(9)
    h3 = pendant_clique(3)
    got9 = {canonical_bits(from_graph6(s).masks, 9)
            for s in rep9.equality_class}
    ok9 = (not rep9.mismatches and got9 == {canonical_bits(h3.masks, 9)}
           and tau_max(h3) == 4)
    _report("2 (classification, n=4 and n=9)", ok4 and ok9, t0, 600,
            f"n=4 class {sorted(rep4.recognized_tags)}, n=9 class "
            f"{sorted(rep9.recognized_tags)}")


def test_criterion_3_extreme_betti_values():
    t0 = time.perf_counter()
    checks = []
    t = betti_table(two_k2(), GF2)
    checks.append((t.pd, t.reg) == (2, 2))
    t = betti_table(cycle_graph(4), GF2)
    checks.append((t.pd, t.reg) == (3, 1))
    for s in (2, 3):
        t = betti_table(pendant_clique(s), GF2)
        checks.append((t.pd, t.reg) == (2 * s - 2, 1))
    checks.append(pd_and_reg(pendant_clique(4), GF2) == (6, 1))
    _report("3 (extreme (pd, reg) values)", all(checks), t0, 300,
            "2K2 (2,2); C4 (3,1); H_s (2s-2,1) for s=2,3,4")


def test_criterion_4_golden_betti_tables():
    t0 = time.perf_counter()
    golden_2k2 = {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    golden_c4 = {(0, 0): 1, (1, 2): 4, (2, 3): 4, (3, 4): 1}
    oracle_ok = (betti_table_naive(two_k2()) == golden_2k2
                 and betti_table_naive(cycle_graph(4)) == golden_c4)
    engine_ok = (betti_table(two_k2()).entries == golden_2k2
                 and betti_table(cycle_graph(4)).entries == golden_c4)
    _report("4 (golden Betti tables)", oracle_ok and engine_ok, t0, 300,
            "2K2 and C4 tables match the independent naive oracle")


def test_criterion_5_spectrum_construction():
    t0 = time.perf_counter()
    checks = verify_spectrum(14)
    bad = [c for c in checks if not c.ok]
    pairs = sum(1 for _ in checks)
    hom_checked = sum(1 for c in checks if c.pd is not None)
    _report("5 (pd spectrum constructions, n=2..14)", not bad, t0, 1200,
            f"{pairs} (n, p) pairs, homology verified on {hom_checked}")


def test_criterion_6_pdr_spectrum_and_conjecture():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in range(4, 9):
        rep = pdr_spectrum(n, GF2)
        row_ok = rep.row(1) == rep.expected_r1_row()
        conj = rep.conjecture_violations()
        # every constructible (p, r) pair is realized in the spectrum
        constructible = set()
        for r in range(1, n // 2 + 1):
            low, high = pdr_range(n, r)
            constructible |= {(p, r) for p in range(low, high + 1)}
        coverage_ok = constructible <= rep.pairs
        ok &= row_ok and not conj and coverage_ok
        details.append(f"n={n}: {len(rep.pairs)} pairs")
    _report("6 (pdrSpec(4..8) + monotone-conjecture)", ok, t0, 1800,
            "; ".join(details))


def test_criterion_7_pdr_constructions():
    t0 = time.perf_counter()
    bad = []
    built = 0
    for n in range(2, 13):
        for r in range(1, n // 2 + 1):
            low, high = pdr_range(n, r)
            for p in range(low, high + 1):
                g = build_pdr_graph(n, p, r)
                built += 1
                if g.n != n or pd_and_reg(g, GF2) != (p, r):
                    bad.append((n, p, r))
    _report("7 (pd/reg realizability, n<=12)", not bad, t0, 600,
            f"{built} (n, p, r) triples")


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    corpus = _seeded_corpus(1000)
    violations = []
    chordal_seen = 0
    for g in corpus:
        nu = induced_matching_number(g)
        beta = matching_number(g)
        tau = tau_max(g)
        rep = dual_check(g, GF2)
        pd = rep.pd_primal
        _, reg = pd_and_reg(g, GF2)
        if not nu <= reg <= beta:
            violations.append(("nu<=reg<=beta", g))
        if not tau <= pd <= g.n - 1:
            violations.append(("tau<=pd<=n-1", g))
        if not (rep.identity_holds and rep.dominates_tau):
            violations.append(("terai", g))
        if is_chordal(g):
            chordal_seen += 1
            if pd != tau or reg != nu:
                violations.append(("chordal equalities", g))
    _report("8 (property suites, 1000 random graphs)", not violations, t0,
            1200, f"chordal subset size {chordal_seen}")


def test_criterion_9_oracle_equivalence():
    t0 = time.perf_counter()
    bad = 0
    complexes = 0
    # exhaustive n <= 6 over isomorphism classes
    for n in range(0, 7):
        for g in enumerate_graphs(n):
            if list(enumerate_minimal_covers(g)) != minimal_covers_bruteforce(g):
                bad += 1
    # 200 seeded random graphs with n <= 12
    import random as _random
    rng = _random.Random(99991)
    for i in range(200):
        g = random_graph(rng.randint(1, 12), (0.15, 0.3, 0.5, 0.7, 0.85)[i % 5],
                         rng.randrange(2 ** 62))
        if list(enumerate_minimal_covers(g)) != minimal_covers_bruteforce(g):
            bad += 1
    # Euler-Poincare on independence complexes of a broad sample
    for n in range(0, 7):
        for g in enumerate_graphs(n):
            cx = independence_complex(g)
            complexes += 1
            for field in (GF2, GF3, QQ):
                dims = homology_dims(cx, field)
                if reduced_euler_characteristic(cx) != sum(
                        (-1) ** k * d for k, d in dims.items()):
                    bad += 1
    _report("9 (oracle equivalence)", bad == 0, t0, 600,
            f"covers exhaustively checked to n=6 + 200 random; "
            f"Euler-Poincare on {complexes} complexes x 3 fields")


def test_criterion_10_pdr_spectrum_n9():
    # every isolate-free class on 9 vertices, against the committed output
    # of `edgeideals verify pdr-spec --n 9`; most pairs come from the
    # bounds, the rest from the Hochster sum
    t0 = time.perf_counter()
    rep = pdr_spectrum(9, GF2)
    committed = (Path(__file__).resolve().parents[1] / "data"
                 / "pdr_spectrum_n9.csv").read_text().splitlines()[1:]
    ok = (rep.classes_visited == ISOLATE_FREE_COUNTS[9]
          and rep.certified == 248467
          and rep.csv_lines() == committed
          and rep.row(1) == rep.expected_r1_row()
          and not rep.conjecture_violations()
          and {(p, r) for p, r in rep.pairs if p == 4} == {(4, 1)})
    _report("10 (pdrSpec(9))", ok, t0, 600,
            f"{len(rep.pairs)} pairs; {rep.certified} of "
            f"{rep.classes_visited} classes pinned by the bounds")
