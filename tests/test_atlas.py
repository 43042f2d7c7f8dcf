import hashlib
import random
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeideals import atlas
from edgeideals.atlas import (UNLABELED_GRAPH_COUNTS, CanonicalForm,
                              PdrPoint, PdrSpectrumReport, _atlas_level,
                              _canonical_search, _child_rows, _class_key,
                              _deletion_key, _deletion_rows,
                              _deletion_tables, _earlier_class,
                              _earlier_deletion, _orbit_least_masks,
                              _vertex_rows,
                              canonical_bits, canonical_form,
                              enumerate_graphs, pdr_spectrum, random_graph,
                              recognize_family, verify_bound,
                              verify_classification, verify_spectrum)
from edgeideals.betti import betti_table
from edgeideals.covers import tau_max
from edgeideals.errors import ParameterRangeError, ResourceLimitError
from edgeideals.families import (complete_graph, cycle_graph, path_graph,
                                 pendant_clique, two_k2)
from edgeideals.gio import from_graph6, to_graph6
from edgeideals.graphs import (Graph, disjoint_union, induced_subgraph,
                               is_chordal, is_gap_free, isolated_vertices,
                               relabel)
from edgeideals.homology import GF2, GF3, QQ
from edgeideals.spectrum import cover_lower_bound
from oracles import atlas_levels_unpruned

DATA = Path(__file__).resolve().parents[1] / "data"


def brute_isomorphic(g, h):
    if g.n != h.n or sorted(g.degree_sequence()) != sorted(h.degree_sequence()):
        return False
    for perm in permutations(range(g.n)):
        if all(h.has_edge(perm[u], perm[v]) for u, v in g.edges):
            return True
    return False


def test_canonical_invariance_under_relabeling():
    # 200 random graphs x 50 random relabelings each
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 8)
        g = random_graph(n, rng.choice((0.2, 0.5, 0.8)), rng.randrange(10 ** 9))
        base = canonical_bits(g.masks, n)
        for _ in range(50):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_bits(relabel(g, perm).masks, n) == base


def test_canonical_separates_exactly():
    rng = random.Random(5)
    pool = []
    for _ in range(60):
        n = rng.randint(2, 6)
        pool.append(random_graph(n, rng.choice((0.3, 0.5, 0.7)),
                                 rng.randrange(10 ** 9)))
    for g, h in combinations(pool, 2):
        if g.n != h.n:
            continue
        same_bits = canonical_bits(g.masks, g.n) == canonical_bits(h.masks, h.n)
        assert same_bits == brute_isomorphic(g, h)


def test_canonical_known_distinctions():
    p3 = path_graph(3)
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert canonical_bits(p3.masks, 4) != canonical_bits(star.masks, 4)
    a = relabel(cycle_graph(4), [2, 0, 3, 1])
    assert canonical_form(a) == canonical_form(cycle_graph(4))
    k3k1 = Graph(4, [(0, 1), (0, 2), (1, 2)])
    assert canonical_form(relabel(k3k1, [3, 1, 0, 2])) == canonical_form(k3k1)


def test_canonical_bits_pinned():
    # The form is the least leaf of the refinement search tree, which for
    # this K3 + K2 is not the least bitstring over all 120 orders: 184
    # reads the same graph. Pinned, so that a change to the form, which
    # moves pdr_spectrum's witnesses, fails here.
    g = Graph(5, [(0, 2), (0, 4), (1, 3), (2, 4)])
    assert {canonical_bits(relabel(g, perm).masks, 5)
            for perm in permutations(range(5))} == {531}
    assert brute_isomorphic(CanonicalForm(5, 184).graph(), g)


def test_canonical_form_roundtrip_and_cap():
    g = pendant_clique(3)
    form = canonical_form(g)
    assert canonical_bits(form.graph().masks, g.n) == form.bits
    assert form.graph6()
    with pytest.raises(ResourceLimitError):
        canonical_form(Graph(13))
    # internal engine still works above the public cap
    assert canonical_bits(pendant_clique(4).masks, 16) == \
        canonical_bits(relabel(pendant_clique(4), list(reversed(range(16)))).masks, 16)


PUBLISHED_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def test_enumeration_counts_published():
    for n, expect in PUBLISHED_COUNTS.items():
        assert sum(1 for _ in enumerate_graphs(n)) == expect


def test_enumeration_counts_vs_labeled_bruteforce():
    for n in range(1, 7):
        seen = set()
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            seen.add(canonical_bits(g.masks, n))
        assert len(seen) == PUBLISHED_COUNTS[n]


def test_atlas_levels_equal_unpruned_oracle():
    # orbit pruning keeps every representative, its labels and its position
    for n, expect in enumerate(atlas_levels_unpruned(7)):
        got = _atlas_level(n)
        assert len(got) == UNLABELED_GRAPH_COUNTS[n]
        assert [g.edges for g in got] == [g.edges for g in expect]


def test_atlas_deletion_test_saves_canonical_forms(monkeypatch):
    # from a cold cache: a child whose one-vertex deletion can only be an
    # earlier parent gets no canonical form, by the deletion keys or, once
    # its class key was met, by the class keys of its deletions; of the
    # rest only those whose class key was met before get one (5,096 calls
    # at n = 7 with no test, one per orbit-least attachment set; 1,212
    # with the deletion test alone, 325 with the class key too). Up to
    # n = 7 no child reaches a canonical form.
    calls = []

    def counted(masks, n):
        calls.append(n)
        return canonical_bits(masks, n)

    monkeypatch.setattr(atlas, "_ATLAS_CACHE", {0: [Graph(0)]})
    monkeypatch.setattr(atlas, "canonical_bits", counted)
    level = _atlas_level(7)
    assert len(level) == UNLABELED_GRAPH_COUNTS[7]
    assert calls == []
    level = _atlas_level(8)
    assert len(level) == UNLABELED_GRAPH_COUNTS[8]
    assert calls == [8] * 186


def _orbit_least_children(n):
    """(i, parent, attach, child) for every parent in level n - 1, at
    position i, and each attachment set the atlas tries on it; the child,
    on n vertices, is built from the parent's edges."""
    for i, parent in enumerate(_atlas_level(n - 1)):
        auts = _canonical_search(parent.masks, n - 1)[1]
        for attach in _orbit_least_masks(auts, n - 1):
            child = Graph(n, list(parent.edges)
                          + [(u, n - 1) for u in range(n - 1)
                             if attach >> u & 1])
            yield i, parent, attach, child


def _deletions(child):
    """child - w, built as a graph of its own, for each old vertex w."""
    n = child.n
    return [induced_subgraph(child, [v for v in range(n) if v != w])
            for w in range(n - 1)]


@pytest.mark.parametrize("n", range(2, 8))
def test_deletion_tables_match_explicit_deletions(n):
    # the deletion test's verdict from per-parent tables equals the one
    # from the key of each C - w built as a graph of its own
    b = n.bit_length()
    last = {_deletion_key(_vertex_rows(p.masks, b), b): i
            for i, p in enumerate(_atlas_level(n - 1))}
    dropped = 0
    for i, parent, attach, child in _orbit_least_children(n):
        keys = [_deletion_key(_vertex_rows(sub.masks, b), b)
                for sub in _deletions(child)]
        expect = any(last[key] < i for key in keys)
        rows = _vertex_rows(parent.masks, b)
        tables = _deletion_tables(parent.masks, rows, b)
        assert _earlier_deletion(parent.masks, attach, tables, b, last,
                                 i) == expect, (parent.edges, attach)
        dropped += expect
    if n == 7:
        assert dropped == 5096 - 1212


class _Lookups(dict):
    """A dict that records every key read through d[key]."""

    def __init__(self, items):
        super().__init__(items)
        self.read = []

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("n", range(2, 8))
def test_class_deletion_rows_match_explicit_deletions(n):
    # the rows of each C - w that the second deletion test derives from C's
    # own are those of C - w built as a graph of its own, and the test
    # reads the class keys of the deletions of the old vertices, latest
    # first, up to the first one met only under an earlier parent
    b = n.bit_length()
    last_class = {_class_key(_vertex_rows(p.masks, b)): i
                  for i, p in enumerate(_atlas_level(n - 1))}
    dropped = 0
    for i, parent, attach, child in _orbit_least_children(n):
        rows = _vertex_rows(child.masks, b)
        subs = _deletions(child)
        for w, sub in enumerate(subs):
            assert _deletion_rows(child.masks, rows, w, b) == \
                _vertex_rows(sub.masks, b), (parent.edges, attach, w)
        keys = [_class_key(_vertex_rows(sub.masks, b))
                for sub in reversed(subs)]
        first = next((k for k, key in enumerate(keys)
                      if last_class[key] < i), None)
        lookups = _Lookups(last_class)
        verdict = _earlier_class(child.masks, rows, b, lookups, i)
        assert verdict == (first is not None), (parent.edges, attach)
        assert lookups.read == keys[:len(keys) if first is None
                                    else first + 1], (parent.edges, attach)
        dropped += verdict
    if n == 7:
        # on its own it keeps one child per class: 1,044 of 5,096
        assert dropped == 5096 - 1044


@pytest.mark.parametrize("n", range(1, 8))
def test_class_key_from_parent_matches_child(n):
    # the rows the atlas keys a child by, computed from its parent's, are
    # the child's own, so its key is too
    b = n.bit_length()
    for _, parent, attach, child in _orbit_least_children(n):
        rows = _child_rows(parent.masks, _vertex_rows(parent.masks, b),
                           attach, b)
        assert rows == _vertex_rows(child.masks, b), (parent.edges, attach)


@given(st.integers(1, 9), st.sampled_from((0.2, 0.5, 0.8)),
       st.integers(0, 10 ** 9))
@settings(max_examples=100, deadline=None)
def test_class_key_invariant_under_relabeling(n, p, seed):
    g = random_graph(n, p, seed)
    b = n.bit_length()
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    assert _class_key(_vertex_rows(relabel(g, perm).masks, b)) == \
        _class_key(_vertex_rows(g.masks, b))


# sha256 of the graph6 lines of level 8, in order, as built with no
# deletion test; the unpruned oracle stops at n = 7
LEVEL_8_SHA256 = \
    "69fda48ed5c789b5945500540fd14b642a77c93379eff11f05401a5ed26b601c"


def test_atlas_level_8_order_pinned():
    text = "".join(to_graph6(g) + "\n" for g in _atlas_level(8))
    assert hashlib.sha256(text.encode()).hexdigest() == LEVEL_8_SHA256


def _symmetric_graphs():
    """Petersen, the icosahedron, K3 x K3, 2C6 and 4K3."""
    petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                     + [(i, 5 + i) for i in range(5)])
    # apexes 0 and 11, upper ring 1..5, lower ring 6..10
    icosahedron = Graph(12, [(0, i) for i in range(1, 6)]
                        + [(11, i) for i in range(6, 11)]
                        + [(1 + i, 1 + (i + 1) % 5) for i in range(5)]
                        + [(6 + i, 6 + (i + 1) % 5) for i in range(5)]
                        + [(1 + i, 6 + i) for i in range(5)]
                        + [(1 + i, 6 + (i + 1) % 5) for i in range(5)])
    rook = Graph(9, [(u, v) for u, v in combinations(range(9), 2)
                     if u // 3 == v // 3 or u % 3 == v % 3])
    two_c6 = disjoint_union(cycle_graph(6), cycle_graph(6))
    k3 = complete_graph(3)
    four_k3 = disjoint_union(disjoint_union(k3, k3), disjoint_union(k3, k3))
    return petersen, icosahedron, rook, two_c6, four_k3


def test_search_stores_few_automorphisms():
    # _canonical_search keeps every perm it finds, with no cap; the orbit
    # pruning keeps them few: at most 10 on every graph with n <= 8, and at
    # most 2n on highly symmetric graphs up to n = 12, whose bits still do
    # not depend on the labeling
    most = max(len(_canonical_search(g.masks, n)[1])
               for n in range(9) for g in _atlas_level(n))
    assert most <= 10
    rng = random.Random(17)
    for g in _symmetric_graphs():
        assert len({m.bit_count() for m in g.masks}) == 1  # regular
        bits, auts = _canonical_search(g.masks, g.n)
        assert len(auts) <= 2 * g.n
        assert all(_is_automorphism(g, a) for a in auts)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_bits(relabel(g, perm).masks, g.n) == bits


def _is_automorphism(g, perm):
    return (sorted(perm) == list(range(g.n))
            and all(g.has_edge(perm[u], perm[v]) for u, v in g.edges))


def _image(mask, perm):
    return sum(1 << perm[v] for v in range(len(perm)) if mask >> v & 1)


def test_search_automorphisms_and_orbit_least_masks_every_graph_to_n6():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            bits, auts = _canonical_search(g.masks, n)
            assert bits == canonical_bits(g.masks, n)
            assert all(_is_automorphism(g, a) for a in auts)
            group = [p for p in permutations(range(n))
                     if _is_automorphism(g, p)]
            least = [m for m in range(1 << n)
                     if all(_image(m, p) >= m for p in group)]
            assert _orbit_least_masks(auts, n) == least, g.edges


def _closure(gens, n):
    """The group the perms `gens` on range(n) generate."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for a in gens:
            q = tuple(a[v] for v in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


def test_search_automorphisms_generate_the_whole_group_to_n6():
    # the perms _canonical_search keeps generate all of Aut(G), not just a
    # subgroup, on every graph with n <= 6
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            auts = _canonical_search(g.masks, n)[1]
            count = sum(_is_automorphism(g, p)
                        for p in permutations(range(n)))
            assert len(_closure(auts, n)) == count, g.edges


@given(st.integers(1, 9), st.sampled_from((0.2, 0.5, 0.8)),
       st.integers(0, 10 ** 9))
@settings(max_examples=100, deadline=None)
def test_search_automorphisms_map_masks_onto_themselves(n, p, seed):
    g = random_graph(n, p, seed)
    for a in _canonical_search(g.masks, n)[1]:
        assert _is_automorphism(g, a)


def test_enumeration_filters():
    assert sum(1 for _ in enumerate_graphs(4, "no-isolated")) == 7
    assert sum(1 for _ in enumerate_graphs(1)) == 1
    assert sum(1 for _ in enumerate_graphs(4, "connected")) == 6
    with pytest.raises(ParameterRangeError):
        list(enumerate_graphs(4, "weird"))
    with pytest.raises(ResourceLimitError):
        list(enumerate_graphs(10))


def test_enumeration_yields_pairwise_nonisomorphic():
    graphs = list(enumerate_graphs(5))
    forms = [canonical_bits(g.masks, 5) for g in graphs]
    assert len(set(forms)) == len(forms)


def test_random_graph_determinism():
    g1 = random_graph(8, 0.4, seed=123)
    g2 = random_graph(8, 0.4, seed=123)
    assert g1 == g2
    assert random_graph(6, 0.0, seed=1) == Graph(6)
    assert random_graph(6, 1.0, seed=1) == complete_graph(6)
    with pytest.raises(ParameterRangeError):
        random_graph(4, 1.5, seed=0)


def test_recognize_family():
    for s in range(1, 11):
        tag = recognize_family(pendant_clique(s))
        assert tag.kind == "hs" and tag.s == s
    assert recognize_family(path_graph(3)).kind == "hs"
    assert recognize_family(path_graph(3)).s == 2
    assert recognize_family(two_k2()).kind == "2k2"
    assert recognize_family(cycle_graph(4)).kind == "c4"
    assert recognize_family(cycle_graph(5)).kind == "other"
    assert recognize_family(complete_graph(4)).kind == "other"
    assert recognize_family(complete_graph(9)).kind == "other"
    assert recognize_family(Graph(9)).kind == "other"


def test_recognize_family_survives_relabeling():
    rng = random.Random(3)
    for s in (2, 3):
        g = pendant_clique(s)
        perm = list(range(g.n))
        rng.shuffle(perm)
        tag = recognize_family(relabel(g, perm))
        assert tag.kind == "hs" and tag.s == s


def test_verify_bound_small():
    reports = verify_bound(5)
    by_n = {r.n: r for r in reports}
    assert set(by_n) == {2, 3, 4, 5}
    assert all(not r.violations for r in reports)
    assert by_n[4].classes_visited == 7
    eq4 = {CanonicalForm(4, canonical_bits(gfrom.masks, 4)) for gfrom in
           (two_k2(), cycle_graph(4), path_graph(3))}
    got4 = set()
    from edgeideals.gio import from_graph6
    for s in by_n[4].equality_class:
        g = from_graph6(s)
        got4.add(CanonicalForm(4, canonical_bits(g.masks, 4)))
    assert got4 == eq4


def test_verify_bound_sampled():
    reports = verify_bound(6, exhaustive=False, samples=40, seed=11)
    assert all(not r.violations for r in reports)
    assert all(r.classes_visited == 40 for r in reports)
    with pytest.raises(ParameterRangeError):
        verify_bound(5, exhaustive=False)


def test_verify_classification_n4():
    rep = verify_classification(4)
    assert not rep.mismatches
    assert len(rep.equality_class) == 3
    assert sorted(rep.recognized_tags) == ["2k2", "c4", "hs:2"]
    with pytest.raises(ParameterRangeError):
        verify_classification(6)


def test_verify_spectrum_small():
    checks = verify_spectrum(8)
    assert all(c.ok for c in checks)
    pairs = {(c.n, c.p) for c in checks}
    for n in range(2, 9):
        for p in range(cover_lower_bound(n), n):
            assert (n, p) in pairs
    assert all(c.pd == c.p and c.reg == 1 for c in checks)


def test_verify_spectrum_homology_to_betti_cap():
    # the default cutoff is the Betti cap: every pair up to n = 16 gets its
    # (pd, reg) from the subset sum
    checks = verify_spectrum(16)
    assert len(checks) == 73
    assert all(c.pd is not None and c.ok for c in checks)


def test_verify_spectrum_homology_to_betti_cap_in_force(monkeypatch):
    # a lower cap moves the cutoff with it: the pairs above it are still
    # checked for tau_max, chordality and gap-freeness, not refused
    monkeypatch.setenv("EDGEIDEALS_MAX_BETTI_N", "12")
    checks = verify_spectrum(14)
    assert {c.n for c in checks} == set(range(2, 15))
    assert all(c.ok for c in checks)
    assert all((c.pd is None) == (c.n > 12) for c in checks)


def test_pdr_spectrum_small():
    rep = pdr_spectrum(4)
    assert rep.row(1) == {2, 3}
    assert (2, 2) in rep.pairs           # two disjoint edges
    assert rep.conjecture_violations() == []
    assert rep.classes_visited == 7
    lines = rep.csv_lines()
    assert all(line.startswith("4,") for line in lines)
    rep6 = pdr_spectrum(6)
    assert rep6.row(1) == {3, 4, 5}
    with pytest.raises(ResourceLimitError, match="EDGEIDEALS_MAX_ENUM_N"):
        pdr_spectrum(10)


def _pdr_csv(n):
    """The rows of data/pdr_spectrum_n<n>.csv, the output of
    `edgeideals verify pdr-spec --n <n>`."""
    lines = (DATA / f"pdr_spectrum_n{n}.csv").read_text().splitlines()
    assert lines[0] == "n,p,r,witness_graph6"
    return lines[1:]


# isolate-free classes whose pair pd_reg_bounds pins, out of 7, 23, 122,
# 888 and 11,302
CERTIFIED = {4: 7, 5: 23, 6: 120, 7: 863, 8: 10859}


@pytest.mark.parametrize("n", [4, 5, 6, 7, pytest.param(
    8, marks=pytest.mark.acceptance)])
def test_pdr_spectrum_matches_committed_csv(n):
    # the pairs and witnesses the full Hochster sum gave on every class
    for field in (GF2, QQ):
        rep = pdr_spectrum(n, field)
        assert rep.csv_lines() == _pdr_csv(n)
        assert rep.certified == CERTIFIED[n]


def test_pdr_spectrum_n9_csv():
    points = []
    for line in _pdr_csv(9):
        n, p, r, g6 = line.split(",")
        g = from_graph6(g6)
        assert (int(n), g.n, isolated_vertices(g)) == (9, 9, frozenset())
        assert canonical_form(g).graph6() == g6
        t = betti_table(g, GF2)
        assert (t.pd, t.reg) == (int(p), int(r))
        points.append(PdrPoint(int(p), int(r), canonical_form(g)))
    # classes_visited and certified are unused by the checks below; the
    # run's counts are checked by test_criterion_10_pdr_spectrum_n9
    rep = PdrSpectrumReport(n=9, characteristic=2, points=tuple(points),
                            classes_visited=0, certified=0)
    assert rep.csv_lines() == _pdr_csv(9)
    assert rep.row(1) == rep.expected_r1_row() == {4, 5, 6, 7, 8}
    assert rep.conjecture_violations() == []
    # the paper's first theorem at n = 9: pd = 2 sqrt(n) - 2 forces reg 1
    assert {(p, r) for p, r in rep.pairs if p == 4} == {(4, 1)}


def test_pdr_spectrum_same_over_every_field():
    for n in range(4, 8):
        pairs = pdr_spectrum(n, GF2).pairs
        assert pdr_spectrum(n, GF3).pairs == pdr_spectrum(n, QQ).pairs == pairs


def test_nonsquare_extremal_example():
    # a 10-vertex graph meeting the bound that is neither chordal nor
    # gap-free: the 5-cycle with one leaf on every cycle vertex
    g = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
              + [(i, 5 + i) for i in range(5)])
    assert tau_max(g) == 5 == cover_lower_bound(10)
    assert not is_chordal(g) and not is_gap_free(g)


def test_json_report_lines():
    import json
    rep = verify_bound(3)[0]
    record = json.loads(rep.json_line())
    assert record["n"] == 2 and record["violations"] == []
    crep = verify_classification(4)
    assert json.loads(crep.json_line())["n"] == 4
