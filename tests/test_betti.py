import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeideals.atlas import enumerate_graphs, random_graph
from edgeideals.betti import (betti_json_dict, betti_table, dual_check,
                              field_disagreements, hochster_summand,
                              pd_and_reg, proj_dim, regularity,
                              render_betti_ascii)
from edgeideals.covers import induced_matching_number, matching_number, tau_max
from edgeideals.errors import ParameterRangeError, ResourceLimitError
from edgeideals.families import (complete_bipartite, complete_graph,
                                 cycle_graph, path_graph, pendant_clique,
                                 two_k2)
from edgeideals.graphs import (Graph, disjoint_union, induced_subgraph,
                               is_chordal)
from edgeideals.homology import (GF2, GF3, QQ, FieldSpec, homology_dims,
                                 independence_complex)
from oracles import betti_table_naive

# Golden tables, confirmed by the naive oracle in
# test_goldens_confirmed_by_naive_oracle before being frozen here.
GOLDEN_2K2 = {(0, 0): 1, (1, 2): 2, (2, 4): 1}
GOLDEN_C4 = {(0, 0): 1, (1, 2): 4, (2, 3): 4, (3, 4): 1}
GOLDEN_K2 = {(0, 0): 1, (1, 2): 1}
# betti_table(random_graph(14, .3, 7)) over GF(2), computed by the engine
# that memoized homology under canonical forms instead of folding.
GOLDEN_G14 = {
    (0, 0): 1, (1, 2): 31, (2, 3): 112, (2, 4): 52, (3, 4): 163,
    (3, 5): 315, (3, 6): 13, (4, 5): 105, (4, 6): 793, (4, 7): 87,
    (5, 6): 31, (5, 7): 1043, (5, 8): 250, (6, 7): 4, (6, 8): 789,
    (6, 9): 399, (7, 9): 347, (7, 10): 383, (8, 10): 82, (8, 11): 224,
    (9, 11): 8, (9, 12): 77, (10, 13): 14, (11, 14): 1,
}


def test_golden_tables():
    assert betti_table(two_k2()).entries == GOLDEN_2K2
    assert betti_table(cycle_graph(4)).entries == GOLDEN_C4
    assert betti_table(complete_graph(2)).entries == GOLDEN_K2


def test_goldens_confirmed_by_naive_oracle():
    assert betti_table_naive(two_k2()) == GOLDEN_2K2
    assert betti_table_naive(cycle_graph(4)) == GOLDEN_C4
    assert betti_table_naive(complete_graph(2)) == GOLDEN_K2


def test_pd_reg_of_goldens():
    t = betti_table(two_k2())
    assert (t.pd, t.reg) == (2, 2)
    t = betti_table(cycle_graph(4))
    assert (t.pd, t.reg) == (3, 1)
    t = betti_table(complete_graph(2))
    assert (t.pd, t.reg) == (1, 1)


def test_table_structure_invariants(isolate_free_corpus):
    for g in isolate_free_corpus[:25]:
        t = betti_table(g)
        assert t.entry(0, 0) == 1
        assert all(i != 0 or j == 0 for i, j in t.entries)
        assert t.entry(1, 2) == g.m
        assert t.pd == max(i for i, _ in t.entries)
        assert t.reg == max(j - i for i, j in t.entries)
        assert all(v >= 1 for v in t.entries.values())


def test_engine_equals_naive_oracle(small_corpus):
    for g in [g for g in small_corpus if g.n <= 6][:25]:
        assert betti_table(g).entries == betti_table_naive(g)
        t3 = betti_table(g, GF3)
        assert t3.entries == betti_table_naive(g, 3)


def test_engine_equals_naive_oracle_every_graph_to_n6():
    for n in range(7):
        for g in enumerate_graphs(n):
            for c in (2, 3, 0):
                field = FieldSpec(c)
                t = betti_table(g, field)
                assert t.entries == betti_table_naive(g, c), (g.edges, c)
                assert pd_and_reg(g, field) == (t.pd, t.reg), (g.edges, c)


@st.composite
def graph_and_subset(draw):
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    w = [v for v in range(n) if draw(st.booleans())]
    return Graph(n, edges), w


@given(graph_and_subset(), st.sampled_from((2, 3, 0)))
@settings(max_examples=80, deadline=None)
def test_folding_keeps_homology(case, c):
    g, w = case
    field = FieldSpec(c)
    unfolded = homology_dims(independence_complex(induced_subgraph(g, w)), field)
    assert hochster_summand(g, w, field) == unfolded


def test_g14_table_pinned_and_field_independent():
    g = random_graph(14, .3, 7)
    assert betti_table(g).entries == GOLDEN_G14
    assert betti_table(g, QQ).entries == GOLDEN_G14


def test_fast_path_matches_full_table(small_corpus):
    for g in small_corpus[:40]:
        t = betti_table(g)
        assert pd_and_reg(g) == (t.pd, t.reg)
    h3 = pendant_clique(3)
    t = betti_table(h3)
    assert pd_and_reg(h3) == (t.pd, t.reg) == (4, 1)


def test_known_pd_reg():
    for n in range(3, 10):
        assert proj_dim(complete_bipartite(1, n - 1)) == n - 1
    assert (proj_dim(pendant_clique(3)), regularity(pendant_clique(3))) == (4, 1)
    assert pd_and_reg(Graph(4)) == (0, 0)
    assert pd_and_reg(pendant_clique(2)) == (2, 1)


def test_pendant_clique_extremes():
    for s in (2, 3, 4):
        g = pendant_clique(s)
        for field in (GF2, GF3, QQ):
            t = betti_table(g, field)
            assert pd_and_reg(g, field) == (t.pd, t.reg) == (2 * s - 2, 1)


def test_hochster_summand():
    k2 = complete_graph(2)
    assert hochster_summand(k2, (0, 1)) == {0: 1}
    c4 = cycle_graph(4)
    assert hochster_summand(c4, range(4)) == {0: 1}
    assert hochster_summand(c4, ()) == {-1: 1}
    with pytest.raises(ParameterRangeError):
        hochster_summand(c4, (0, 9))


def test_isolated_vertices_contribute_nothing():
    g = Graph(3, [(0, 1)])
    t = betti_table(g)
    assert t.entries == GOLDEN_K2


def test_resource_cap():
    with pytest.raises(ResourceLimitError):
        betti_table(Graph(20))
    with pytest.raises(ResourceLimitError):
        pd_and_reg(Graph(17))
    assert betti_table(Graph(17), max_n=17).entries == {(0, 0): 1}


def test_dual_check_terai():
    for g in [complete_graph(2), cycle_graph(4), pendant_clique(3),
              two_k2(), path_graph(3)]:
        rep = dual_check(g)
        assert rep.identity_holds
        assert rep.dominates_tau
    rep = dual_check(cycle_graph(4))
    assert rep.reg_dual == 3 and rep.pd_primal == 3 and rep.tau_max == 2
    rep = dual_check(pendant_clique(3))
    assert rep.reg_dual == rep.pd_primal == rep.tau_max == 4


def test_dual_check_rejects_isolates():
    with pytest.raises(ParameterRangeError):
        dual_check(Graph(3, [(0, 1)]))
    with pytest.raises(ParameterRangeError):
        dual_check(Graph(1))


def test_terai_on_corpus(isolate_free_corpus):
    for g in isolate_free_corpus[:20]:
        rep = dual_check(g)
        assert rep.identity_holds and rep.dominates_tau


def test_reg_between_induced_matching_and_matching(isolate_free_corpus):
    for g in isolate_free_corpus[:25]:
        r = regularity(g)
        assert induced_matching_number(g) <= r <= matching_number(g)


def test_sandwich_exhaustive_to_n7():
    from edgeideals.atlas import enumerate_graphs
    for n in range(2, 8):
        for g in enumerate_graphs(n, "no-isolated"):
            _, reg = pd_and_reg(g)
            assert induced_matching_number(g) <= reg <= matching_number(g)


def test_sandwich_named_families_to_n14():
    from edgeideals.families import extremal_pendant_clique
    from edgeideals.spectrum import build_spectrum_graph, cover_lower_bound
    graphs = [pendant_clique(2), pendant_clique(3), cycle_graph(8),
              complete_bipartite(3, 5), two_k2()]
    graphs += [extremal_pendant_clique(n) for n in range(2, 15)]
    graphs += [build_spectrum_graph(14, p)
               for p in range(cover_lower_bound(14), 14)]
    for g in graphs:
        _, reg = pd_and_reg(g)
        assert induced_matching_number(g) <= reg <= matching_number(g)


def test_chordal_equalities(isolate_free_corpus):
    chordal = [g for g in isolate_free_corpus if is_chordal(g)]
    assert chordal
    for g in chordal[:20]:
        pd, reg = pd_and_reg(g)
        assert pd == tau_max(g)
        assert reg == induced_matching_number(g)


def test_tau_le_pd_le_n_minus_1(isolate_free_corpus):
    for g in isolate_free_corpus[:25]:
        pd = proj_dim(g)
        assert tau_max(g) <= pd <= g.n - 1


def test_additivity_under_disjoint_union(small_corpus):
    import random
    rng = random.Random(7)
    pool = [g for g in small_corpus if 1 <= g.n <= 6]
    for _ in range(10):
        g, h = rng.sample(pool, 2)
        if g.n + h.n > 12:
            continue
        pg, rg = pd_and_reg(g)
        ph, rh = pd_and_reg(h)
        pu, ru = pd_and_reg(disjoint_union(g, h))
        assert (pu, ru) == (pg + ph, rg + rh)


def test_field_disagreements_empty_on_small(small_corpus):
    for g in small_corpus[:12]:
        assert field_disagreements(g, (2, 3, 0)) == []


def test_render_and_json():
    t = betti_table(cycle_graph(4))
    text = render_betti_ascii(t)
    assert text.splitlines()[0].split() == ["0", "1", "2", "3"]
    assert "4" in text
    d = betti_json_dict(t)
    assert d["pd"] == 3 and d["reg"] == 1 and d["char"] == 2
    assert d["entries"] == sorted(d["entries"], key=lambda e: (e["i"], e["j"]))
    assert {(e["i"], e["j"]): e["beta"] for e in d["entries"]} == GOLDEN_C4


def test_betti_char_parameter_is_reported():
    t = betti_table(cycle_graph(4), GF3)
    assert t.characteristic == 3
    t0 = betti_table(cycle_graph(4), QQ)
    assert t0.characteristic == 0 and t0.entries == GOLDEN_C4
