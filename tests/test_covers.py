import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeideals.atlas import enumerate_graphs, random_graph
from edgeideals.covers import (_greedy_independent, _maximum_matching,
                               _mis_summary, cover_report,
                               enumerate_minimal_covers,
                               induced_matching_number,
                               is_minimal_vertex_cover, is_vertex_cover,
                               matching_number, maximal_independent_sets,
                               tau_max)
from edgeideals.errors import ResourceLimitError
from edgeideals.families import (complete_graph, complete_bipartite,
                                 cycle_graph, extremal_pendant_clique,
                                 path_graph, pendant_clique, two_k2)
from edgeideals.gio import from_graph6, to_graph6
from edgeideals.graphs import (Graph, is_connected, is_gap_free,
                               isolated_vertices)
from edgeideals.spectrum import cover_lower_bound
from oracles import (induced_matching_branching, induced_matching_bruteforce,
                     matching_branching, matching_bruteforce,
                     minimal_covers_bruteforce)


def test_c4_minimal_covers():
    assert list(enumerate_minimal_covers(cycle_graph(4))) == [(0, 2), (1, 3)]


def test_k3_minimal_covers():
    covers = list(enumerate_minimal_covers(complete_graph(3)))
    assert covers == [(0, 1), (0, 2), (1, 2)]


def test_p3_minimal_covers_match_bruteforce():
    p3 = path_graph(3)
    expected = minimal_covers_bruteforce(p3)
    assert list(enumerate_minimal_covers(p3)) == expected
    assert sorted(len(c) for c in expected) == [2, 2, 2]


def test_enumeration_equals_bruteforce(small_corpus):
    for g in small_corpus:
        got = list(enumerate_minimal_covers(g))
        assert got == minimal_covers_bruteforce(g)
        assert all(is_minimal_vertex_cover(g, c) for c in got)
        assert len(set(got)) == len(got)


def test_empty_and_edgeless():
    assert list(enumerate_minimal_covers(Graph(0))) == [()]
    assert list(enumerate_minimal_covers(Graph(3))) == [()]
    rep = cover_report(Graph(3))
    assert rep.tau_max == 0 and rep.i_min == 3


def test_cover_report_witnesses(small_corpus):
    for g in small_corpus:
        rep = cover_report(g)
        assert is_minimal_vertex_cover(g, rep.witness_cover)
        assert len(rep.witness_cover) == rep.tau_max
        assert len(rep.witness_independent) == rep.i_min
        assert rep.tau_max + rep.i_min == g.n
        assert set(rep.witness_cover) | set(rep.witness_independent) == set(range(g.n))
        # witness independent set is maximal: every vertex outside has a neighbor in
        ws = set(rep.witness_independent)
        for v in range(g.n):
            if v not in ws:
                assert g.neighbors(v) & ws


def test_witness_cover_is_least_of_the_largest(small_corpus):
    # the documented choice: of the largest minimal covers, the
    # lexicographically least sorted tuple
    every_class = [g for n in range(7) for g in enumerate_graphs(n)]
    for g in every_class + small_corpus:
        covers = minimal_covers_bruteforce(g)
        largest = max(map(len, covers))
        expected = min(c for c in covers if len(c) == largest)
        assert cover_report(g).witness_cover == expected, g.edges


def test_tau_max_known_values():
    assert tau_max(pendant_clique(5)) == 8
    for q in range(2, 8):
        assert tau_max(complete_graph(q)) == q - 1
    assert tau_max(extremal_pendant_clique(27)) == 9
    assert tau_max(extremal_pendant_clique(31)) == 10
    assert tau_max(two_k2()) == 2
    assert tau_max(cycle_graph(4)) == 2
    assert tau_max(path_graph(3)) == 2
    assert tau_max(complete_bipartite(1, 4)) == 4


def test_extremal_family_hits_lower_bound():
    from edgeideals.spectrum import cover_lower_bound
    for n in range(2, 38):
        assert tau_max(extremal_pendant_clique(n)) == cover_lower_bound(n)


def test_mis_are_complements_of_minimal_covers(small_corpus):
    for g in small_corpus[:40]:
        mis = maximal_independent_sets(g)
        covers = list(enumerate_minimal_covers(g))
        assert sorted(tuple(sorted(set(range(g.n)) - set(s))) for s in mis) == covers
        # isolated vertices sit in every maximal independent set
        iso = isolated_vertices(g)
        assert all(iso <= set(s) for s in mis)


def summary_by_listing(g):
    """(count, least size, witness mask) of the maximal independent sets,
    read off the sorted list: the witness is the least-size set whose
    complement, as a sorted tuple, is least."""
    sets = maximal_independent_sets(g)
    size = min(map(len, sets))
    witness = min((s for s in sets if len(s) == size),
                  key=lambda s: tuple(v for v in range(g.n) if v not in s))
    return len(sets), size, sum(1 << v for v in witness)


def test_mis_summary_equals_listing_every_graph_to_n7():
    for n in range(8):
        for g in enumerate_graphs(n):
            assert _mis_summary(g.masks) == summary_by_listing(g), g.edges


def test_mis_summary_equals_listing_random():
    corpus = [random_graph(n, p, seed) for n in range(8, 25)
              for p in (0.1, 0.2, 0.35, 0.6) for seed in range(3)]
    assert sum(not is_connected(g) for g in corpus) >= 20
    for g in corpus:
        assert _mis_summary(g.masks) == summary_by_listing(g), to_graph6(g)


def _is_maximal_independent(masks, s):
    return all(not masks[v] & s if s >> v & 1 else masks[v] & s
               for v in range(len(masks)))


def test_greedy_independent_set_is_maximal_below_tau_max():
    # the certificate of verify_bound and verify_classification: a maximal
    # independent set S, whose complement is a minimal cover, so
    # n - |S| <= tau_max. On 784 of the 1,043 isolate-free classes with
    # n <= 7 it is already above ceil(2 sqrt(n) - 2)
    above = 0
    for n in range(2, 8):
        for g in enumerate_graphs(n, "no-isolated"):
            s = _greedy_independent(g.masks)
            assert _is_maximal_independent(g.masks, s), g.edges
            assert n - s.bit_count() <= tau_max(g), g.edges
            above += n - s.bit_count() > cover_lower_bound(n)
    assert above == 784
    for n in range(1, 21):
        for p in (0.1, 0.3, 0.5, 0.8):
            g = random_graph(n, p, 1000 * n + int(10 * p))
            s = _greedy_independent(g.masks)
            assert _is_maximal_independent(g.masks, s), to_graph6(g)
            assert n - s.bit_count() <= tau_max(g), to_graph6(g)


def test_matching_numbers_known():
    assert matching_number(two_k2()) == 2
    assert matching_number(cycle_graph(5)) == 2
    assert matching_number(pendant_clique(3)) == 3
    assert induced_matching_number(two_k2()) == 2
    assert induced_matching_number(cycle_graph(4)) == 1
    assert induced_matching_number(Graph(4)) == 0
    for s in range(2, 7):
        assert induced_matching_number(pendant_clique(s)) == 1


def test_matching_against_bruteforce(small_corpus):
    for g in small_corpus:
        if g.n <= 7:
            assert matching_number(g) == matching_bruteforce(g)
            assert induced_matching_number(g) == induced_matching_bruteforce(g)


def test_matching_equals_branching_oracle_every_graph_to_n7():
    for n in range(8):
        for g in enumerate_graphs(n):
            assert matching_number(g) == matching_branching(g), g.edges
            assert induced_matching_number(g) == induced_matching_branching(g), g.edges


def test_matching_equals_branching_oracle_random():
    for n in range(8, 19):
        for p in (0.15, 0.3, 0.5, 0.8):
            for seed in range(20):
                g = random_graph(n, p, seed)
                assert matching_number(g) == matching_branching(g), (n, p, seed)
                assert (induced_matching_number(g)
                        == induced_matching_branching(g)), (n, p, seed)


# C5 on 0..4 with the spokes i -- i + 5; the pentagram on 5..9 completes
# the Petersen graph.
C5_WITH_SPOKES = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
PENTAGRAM = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]


# Graphs whose maximum matching needs an odd cycle contracted. GSGW@G, the
# sample random_graph(8, .2, 194) with the 5-cycle 0-2-4-5-3, has nu = 3,
# but a search that skips contraction stops at 2 from the greedy start.
# SPARSE_30 is random_graph(30, .1, 37): nu = 14, but a search that marks
# only one side of a closed cycle as contracted stops at 13.
SPARSE_30 = ("]P@_?`_?BG`G?E?@???g????G_?G@OOaA??_e????_??_??K@??A?@????oB???C"
             "????AD????")
BLOSSOM_CASES = [
    ("petersen", Graph(10, C5_WITH_SPOKES + PENTAGRAM), 5),
    ("c5_with_pendants", Graph(10, C5_WITH_SPOKES), 5),
    ("triangles_joined_by_p2",
     Graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)]), 3),
    ("GSGW@G", from_graph6("GSGW@G"), 3),
    ("sparse_30", from_graph6(SPARSE_30), 14),
    *((f"pendant_clique_{s}", pendant_clique(s), s) for s in range(2, 7)),
]


@pytest.mark.parametrize("g,nu", [case[1:] for case in BLOSSOM_CASES],
                         ids=[case[0] for case in BLOSSOM_CASES])
def test_matching_blossom_graphs_pinned(g, nu):
    assert matching_branching(g) == nu
    assert matching_number(g) == nu


def test_matching_scales_without_recursion():
    assert matching_number(path_graph(2000)) == 1000
    assert matching_number(cycle_graph(3001)) == 1500
    # the Bron-Kerbosch search behind covers and induced matchings keeps an
    # explicit stack: K_{1,1499} has a branch of depth 1499
    rep = cover_report(complete_bipartite(1, 1499))
    assert (rep.tau_max, rep.num_minimal_covers) == (1499, 2)
    assert rep.witness_cover == tuple(range(1, 1500))
    # isolated vertices start out in every set: no branch at all
    assert tau_max(Graph(3000)) == 0
    disjoint_edges = Graph(3000, [(2 * i, 2 * i + 1) for i in range(1500)])
    assert induced_matching_number(disjoint_edges) == 1500


def test_induced_matching_of_long_paths_and_cycles():
    # path_graph(m) has m edges: every third one, from the first, is an
    # induced matching; a cycle of length k fits floor(k / 3)
    for m in range(1, 301):
        assert induced_matching_number(path_graph(m)) == -(-m // 3), m
    for k in range(3, 301):
        assert induced_matching_number(cycle_graph(k)) == k // 3, k


def test_long_path_induced_matching_past_the_cover_cap():
    # the clique bound closes the search on the 60 edges of path_graph(60)
    # at once, while its maximal independent sets are far more than the
    # default cap allows
    p60 = path_graph(60)
    assert induced_matching_number(p60) == 20
    with pytest.raises(ResourceLimitError, match="EDGEIDEALS_MAX_MIS"):
        cover_report(p60)


def test_mis_search_cap_from_environment(monkeypatch):
    # C_12 has 29 maximal independent sets (the Perrin number P(12))
    c12 = cycle_graph(12)
    monkeypatch.setenv("EDGEIDEALS_MAX_MIS", "29")
    assert cover_report(c12).num_minimal_covers == 29
    assert len(maximal_independent_sets(c12)) == 29
    monkeypatch.setenv("EDGEIDEALS_MAX_MIS", "28")
    for f in (cover_report, tau_max, maximal_independent_sets,
              enumerate_minimal_covers):
        with pytest.raises(ResourceLimitError, match="EDGEIDEALS_MAX_MIS"):
            f(c12)
    # for the induced matching number the cap counts the nodes of the
    # branch and bound on the conflict graph of the 12 edges: it expands 5
    monkeypatch.setenv("EDGEIDEALS_MAX_MIS", "1")
    with pytest.raises(ResourceLimitError, match="EDGEIDEALS_MAX_MIS"):
        induced_matching_number(c12)


def test_induced_matching_le_matching(small_corpus):
    for g in small_corpus:
        assert induced_matching_number(g) <= matching_number(g)


def test_gap_free_iff_induced_matching_le_1(small_corpus):
    for g in small_corpus:
        if g.m >= 1:
            assert is_gap_free(g) == (induced_matching_number(g) == 1)


def test_witnesses_survive_edge_addition(small_corpus):
    # rebuild with one extra edge; fresh report's witnesses must validate
    import random
    rng = random.Random(31)
    for g in small_corpus[:30]:
        non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                     if not g.has_edge(u, v)]
        if not non_edges:
            continue
        g2 = Graph(g.n, list(g.edges) + [rng.choice(non_edges)])
        rep = cover_report(g2)
        assert is_minimal_vertex_cover(g2, rep.witness_cover)
        assert rep.i_min <= g2.n


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(2, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    return Graph(n, edges)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_every_enumerated_cover_is_minimal(g):
    for c in enumerate_minimal_covers(g):
        assert is_vertex_cover(g, c)
        assert is_minimal_vertex_cover(g, c)


@given(graphs(max_n=10))
@settings(max_examples=100, deadline=None)
def test_maximum_matching_is_a_maximum_matching_of_g(g):
    pairs = _maximum_matching(g)
    assert pairs == sorted(pairs)
    assert all(u < v and g.has_edge(u, v) for u, v in pairs)
    ends = [x for e in pairs for x in e]
    assert len(set(ends)) == len(ends)
    assert len(pairs) == matching_number(g) == matching_branching(g)


def test_cover_cap_raises_exactly_past_the_count(monkeypatch):
    # the up-front induced matching check never raises below the count;
    # with n <= 8 it runs for every cap below 16
    graphs = [g for n in range(2, 9) for g in enumerate_graphs(n) if g.m]
    counts = [cover_report(g).num_minimal_covers for g in graphs]
    for cap in range(1, 41):
        monkeypatch.setenv("EDGEIDEALS_MAX_MIS", str(cap))
        for g, count in zip(graphs, counts):
            try:
                cover_report(g)
                raised = False
            except ResourceLimitError:
                raised = True
            assert raised == (count > cap), (to_graph6(g), cap, count)


def test_cover_cap_fails_fast_on_long_paths_and_cycles():
    # every third edge is an induced matching: 2^20 sets pass the default
    # cap before any search; without the check path_graph(20000) ran for
    # minutes
    for g in (path_graph(20000), cycle_graph(3000)):
        for f in (cover_report, tau_max, maximal_independent_sets):
            with pytest.raises(ResourceLimitError, match="EDGEIDEALS_MAX_MIS"):
                f(g)
    # one edge of a star meets every other: the check passes it on
    assert cover_report(complete_bipartite(1, 1499)).num_minimal_covers == 2


def test_edgeless_graphs_meet_one_cap_rule(monkeypatch):
    # an edgeless graph has one maximal independent set, all its vertices:
    # every API raises under cap 0 and returns that one set under cap 1
    for g in (Graph(0), Graph(3)):
        monkeypatch.setenv("EDGEIDEALS_MAX_MIS", "0")
        for f in (cover_report, tau_max, maximal_independent_sets):
            with pytest.raises(ResourceLimitError, match="EDGEIDEALS_MAX_MIS"):
                f(g)
        monkeypatch.setenv("EDGEIDEALS_MAX_MIS", "1")
        assert cover_report(g).num_minimal_covers == 1
        assert maximal_independent_sets(g) == [tuple(range(g.n))]
