import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeideals import betti as betti_module
from edgeideals import covers as covers_module
from edgeideals.atlas import enumerate_graphs, random_graph
from edgeideals.betti import (_certified_pd_and_reg, _homology_table,
                              _tensor, _unpack, betti_json_dict, betti_table,
                              dual_check, dual_regularity,
                              field_disagreements, pd_and_reg,
                              pd_reg_bounds, render_betti_ascii)
from edgeideals.covers import induced_matching_number, matching_number, tau_max
from edgeideals.errors import ParameterRangeError, ResourceLimitError
from edgeideals.families import (complete_bipartite, complete_graph,
                                 cycle_graph, path_graph, pendant_clique,
                                 two_k2)
from edgeideals.gio import from_graph6
from edgeideals.graphs import Graph, is_chordal, isolated_vertices
from edgeideals.homology import (GF2, GF3, QQ, FieldSpec, homology_dims,
                                 independence_complex)
from edgeideals.spectrum import build_pdr_graph, pdr_range
from oracles import (betti_table_naive, disjoint_union, dual_regularity_full,
                     dual_regularity_naive, induced_subgraph)

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
# betti_table(random_graph(16, .5, 1)) over GF(2) and over Q, computed by
# the engine that folded each subset and grouped dominated vertices.
GOLDEN_G16 = {
    (0, 0): 1, (1, 2): 56, (2, 3): 310, (2, 4): 78, (3, 4): 790,
    (3, 5): 751, (3, 6): 9, (4, 5): 1138, (4, 6): 3146, (4, 7): 82,
    (5, 6): 1014, (5, 7): 7538, (5, 8): 336, (6, 7): 603, (6, 8): 11639,
    (6, 9): 815, (7, 8): 248, (7, 9): 12390, (7, 10): 1295, (8, 9): 69,
    (8, 10): 9425, (8, 11): 1407, (9, 10): 12, (9, 11): 5204,
    (9, 12): 1057, (10, 11): 1, (10, 12): 2091, (10, 13): 541,
    (11, 13): 606, (11, 14): 180, (12, 14): 123, (12, 15): 35,
    (13, 15): 16, (13, 16): 3, (14, 16): 1,
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


def _table_by_mask(g, field):
    """The subset table over all of g, keyed by g's own vertex masks: bit
    i of a local mask is the i-th vertex by ascending degree, ties by
    label."""
    order = sorted(range(g.n), key=lambda v: (g.degree(v), v))
    sh, val = _homology_table(g, (1 << g.n) - 1, field)
    return {sum(1 << v for i, v in enumerate(order) if s >> i & 1):
            _unpack(packed, sh) for s, packed in enumerate(val)}


def _whole(g, w, field):
    """The subset table's entry for W = w itself, unpacked."""
    sh, val = _homology_table(g, w, field)
    return _unpack(val[-1], sh)


def _plain_sum(g, field):
    """Hochster's sum over every subset W of the vertices, read off one
    subset table over all of g: no components and no leaf split."""
    entries = {}
    for w, h in _table_by_mask(g, field).items():
        j = w.bit_count()
        for k, dim in h.items():
            entries[j - 1 - k, j] = entries.get((j - 1 - k, j), 0) + dim
    return entries


def test_leaf_split_equals_plain_sum_every_graph_to_n7():
    for n in range(8):
        for g in enumerate_graphs(n):
            for c in (2, 3, 0):
                field = FieldSpec(c)
                assert (betti_table(g, field).entries
                        == _plain_sum(g, field)), (g.edges, c)


def _leaf_heavy_graphs(n, seed):
    """A random tree, the pdr graphs at the least legal p for r = 1 and 2,
    and G(n, 0.2), all on n vertices."""
    rng = random.Random(seed)
    out = [Graph(n, [(rng.randrange(v), v) for v in range(1, n)])]
    out += [build_pdr_graph(n, pdr_range(n, r)[0], r) for r in (1, 2)]
    out.append(random_graph(n, .2, seed))
    return out


def test_leaf_split_equals_naive_oracle_on_leaf_heavy_graphs():
    for n in (8, 9, 10):
        for g in _leaf_heavy_graphs(n, 100 + n):
            assert betti_table(g).entries == betti_table_naive(g), g.edges
    for g in _leaf_heavy_graphs(8, 7):
        for c in (3, 0):
            assert (betti_table(g, FieldSpec(c)).entries
                    == betti_table_naive(g, c)), (g.edges, c)


@st.composite
def graph_with_leaves(draw):
    n = draw(st.integers(1, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    k = draw(st.integers(1, 3))
    for leaf in range(n, n + k):
        edges.append((draw(st.integers(0, leaf - 1)), leaf))
    return Graph(n + k, edges)


@given(graph_with_leaves(), st.sampled_from((2, 3, 0)))
@settings(max_examples=40, deadline=None)
def test_leaf_split_identity_on_naive_oracle(g, c):
    # B_G = B_{G - l} + s t^2 (1 + s t)^(d-1) B_{G - N[c]} for every leaf
    # l of G, with c its neighbour and d the degree of c
    table = betti_table_naive(g, c)
    everything = set(range(g.n))
    for leaf in range(g.n):
        if g.degree(leaf) != 1:
            continue
        (nb,) = g.neighbors(leaf)
        closed = set(g.neighbors(nb)) | {nb}
        rest = betti_table_naive(induced_subgraph(g, everything - {leaf}), c)
        far = betti_table_naive(induced_subgraph(g, everything - closed), c)
        d = g.degree(nb)
        step = {(1 + k, 2 + k): comb(d - 1, k) for k in range(d)}
        split = dict(rest)
        for key, x in _tensor(step, far).items():
            split[key] = split.get(key, 0) + x
        assert split == table, (g.edges, leaf)


@st.composite
def graph_with_dominations(draw):
    """A random graph on up to 5 vertices plus up to 3 more, each joined
    to N(u) of an earlier vertex u (an open twin of u) or to a superset of
    N(u) that misses u, so that u dominates it when it is added."""
    n = draw(st.integers(1, 5))
    nbrs = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                nbrs[i].add(j)
                nbrs[j].add(i)
    for v in range(n, n + draw(st.integers(1, 3))):
        u = draw(st.integers(0, v - 1))
        extra = {x for x in range(v) if x != u and draw(st.booleans())}
        nbrs.append(nbrs[u] | (extra if draw(st.booleans()) else set()))
        for x in nbrs[v]:
            nbrs[x].add(v)
    return Graph(len(nbrs), [(u, v) for v in range(len(nbrs))
                             for u in nbrs[v] if u < v])


@given(graph_with_dominations())
@settings(max_examples=40, deadline=None)
def test_table_equals_naive_oracle_on_planted_dominations(g):
    for c in (2, 3, 0):
        assert (betti_table(g, FieldSpec(c)).entries
                == betti_table_naive(g, c)), (g.edges, c)


def test_complete_bipartite_closed_form():
    # Ind(K_{m,k}[W]) is two disjoint simplices, an S^0, when W meets both
    # sides, and a cone otherwise: beta_{i,i+1} counts the (i + 1)-sets W
    # that meet both sides, and nothing else lies past (0, 0)
    for m in range(1, 8):
        for k in range(1, 8):
            want = {(0, 0): 1}
            for i in range(1, m + k):
                want[i, i + 1] = sum(comb(m, a) * comb(k, i + 1 - a)
                                     for a in range(1, i + 1))
            for field in (GF2, GF3, QQ):
                t = betti_table(complete_bipartite(m, k), field)
                assert t.entries == want, (m, k, field)


def test_complete_graph_sums_wider_than_2_to_the_m():
    # Ind(K_n[W]) is |W| points, so beta_{i,i+1} = i C(n, i + 1); these
    # per-size sums of H~_0 pass 2^n (1,050 > 2^10 at i = 5, n = 10), so
    # a packing of the subset table with only n bits per degree carries
    for n in (10, 12):
        want = {(0, 0): 1,
                **{(i, i + 1): i * comb(n, i + 1) for i in range(1, n)}}
        for field in (GF2, GF3, QQ):
            assert betti_table(complete_graph(n), field).entries == want


def test_star_betti_numbers_are_binomial():
    # I(K_{1,k}) = x (y_1, .., y_k), a shifted Koszul complex:
    # beta_{i,i+1} = C(k, i) for 1 <= i <= k, and nothing else past (0, 0)
    for k in range(1, 16):
        want = {(0, 0): 1, **{(i, i + 1): comb(k, i) for i in range(1, k + 1)}}
        for field in ((GF2, GF3, QQ) if k <= 8 else (GF2,)):
            assert betti_table(complete_bipartite(1, k), field).entries == want


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
    relabeled = independence_complex(induced_subgraph(g, w))
    unfolded = homology_dims(relabeled, field)
    mask = sum(1 << v for v in w)
    assert _whole(g, mask, field) == unfolded
    # the same complex built on g's own labels, from the vertex mask of w
    in_place = independence_complex(g, mask)
    assert homology_dims(in_place, field) == unfolded
    assert ({k: len(f) for k, f in in_place.faces_by_dim.items()}
            == {k: len(f) for k, f in relabeled.faces_by_dim.items()})


def test_split_equals_complex_every_graph_to_n6():
    # each entry of the subset table against the complex itself, for every
    # W of every graph with n <= 6 and over three fields
    for n in range(7):
        for g in enumerate_graphs(n):
            tables = {f: _table_by_mask(g, f) for f in (GF2, GF3, QQ)}
            for w in range(1 << n):
                cx = independence_complex(g, w)
                for field, table in tables.items():
                    assert table[w] == homology_dims(cx, field), (g.edges, w)


@st.composite
def random_graph_and_mask(draw):
    n = draw(st.integers(1, 9))
    g = random_graph(n, draw(st.sampled_from((.2, .35, .5, .65, .8))),
                     draw(st.integers(0, 2 ** 31)))
    return g, draw(st.integers(0, (1 << n) - 1))


@given(random_graph_and_mask(), st.sampled_from((2, 3, 0)))
@settings(max_examples=80, deadline=None)
def test_split_equals_complex_on_random_graphs(case, c):
    g, w = case
    field = FieldSpec(c)
    assert (_table_by_mask(g, field)[w]
            == homology_dims(independence_complex(g, w), field))


def test_split_overlap_falls_back_to_the_complex(monkeypatch):
    # GQ~vvg is the one class with n <= 8 whose subset table meets a W
    # where H~(Ind(G[W - N[x]])) and H~(Ind(G[W - x])) share a degree at
    # every vertex x of W; the flag RP^2 graph meets one too. In both W is
    # the whole vertex set, so exactly one complex is built per field, and
    # the tables still equal the naive sum over every field.
    built = []

    def counted(*args):
        built.append(args)
        return independence_complex(*args)

    monkeypatch.setattr(betti_module, "independence_complex", counted)
    for g6, fallbacks, pairs in (("GQ~vvg", 1, ((7, 2),) * 3),
                                 ("JhW[X`LtKF?", 1, ((9, 3), (8, 2), (8, 2)))):
        g = from_graph6(g6)
        for c, pair in zip((2, 3, 0), pairs):
            built.clear()
            t = betti_table(g, FieldSpec(c))
            assert len(built) == fallbacks, (g6, c)
            assert (t.pd, t.reg) == pair
            assert t.entries == betti_table_naive(g, c), (g6, c)


def test_g14_table_pinned_and_field_independent():
    g = random_graph(14, .3, 7)
    assert betti_table(g).entries == GOLDEN_G14
    assert betti_table(g, QQ).entries == GOLDEN_G14


def test_g16_table_at_the_cap_pinned_and_field_independent():
    # the naive oracle cannot reach n = 16, the default Betti cap, where the
    # subset table of one leafless component has 2^16 entries
    g = random_graph(16, .5, 1)
    assert betti_table(g).entries == GOLDEN_G16
    assert betti_table(g, QQ).entries == GOLDEN_G16


def test_fast_path_matches_full_table(small_corpus):
    for g in small_corpus[:40]:
        t = betti_table(g)
        assert pd_and_reg(g) == (t.pd, t.reg)
    h3 = pendant_clique(3)
    t = betti_table(h3)
    assert pd_and_reg(h3) == (t.pd, t.reg) == (4, 1)


def test_known_pd_reg():
    for n in range(3, 10):
        assert pd_and_reg(complete_bipartite(1, n - 1))[0] == n - 1
    assert pd_and_reg(pendant_clique(3)) == (4, 1)
    assert pd_and_reg(Graph(4)) == (0, 0)
    assert pd_and_reg(pendant_clique(2)) == (2, 1)


def test_pendant_clique_extremes():
    for s in (2, 3, 4):
        g = pendant_clique(s)
        for field in (GF2, GF3, QQ):
            t = betti_table(g, field)
            assert pd_and_reg(g, field) == (t.pd, t.reg) == (2 * s - 2, 1)


def test_hochster_summand():
    # the inner Hochster term of W is the entry of W in the subset table
    # over W itself
    assert _whole(complete_graph(2), 0b11, GF2) == {0: 1}
    c4 = cycle_graph(4)
    assert _whole(c4, 0b1111, GF2) == {0: 1}
    # two pieces: Ind(2K2) = S^0 * S^0 = S^1
    assert _whole(two_k2(), 0b1111, GF2) == {1: 1}
    assert _whole(c4, 0, GF2) == {-1: 1}
    # a 16-vertex W of C40 is the path P16
    p16 = (1 << 16) - 1
    assert _whole(cycle_graph(40), p16, GF2) == \
        _whole(path_graph(16), p16, GF2)


def test_isolated_vertices_contribute_nothing():
    g = Graph(3, [(0, 1)])
    t = betti_table(g)
    assert t.entries == GOLDEN_K2


def test_resource_cap(monkeypatch):
    with pytest.raises(ResourceLimitError):
        betti_table(Graph(20))
    with pytest.raises(ResourceLimitError):
        pd_and_reg(Graph(17))
    monkeypatch.setenv("EDGEIDEALS_MAX_BETTI_N", "17")
    assert betti_table(Graph(17)).entries == {(0, 0): 1}


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


def test_dual_regularity_equals_naive_oracle():
    for n in range(2, 7):
        for g in enumerate_graphs(n, "no-isolated"):
            for c in ((2, 3, 0) if n <= 5 else (2,)):
                assert (dual_regularity(g, FieldSpec(c))
                        == dual_regularity_naive(g, c)), (g.edges, c)
    for n, chars in ((7, (2, 0)), (8, (2,))):
        seeded = (random_graph(n, .35, s) for s in range(40))
        for g in [g for g in seeded if not isolated_vertices(g)][:6]:
            for c in chars:
                assert (dual_regularity(g, FieldSpec(c))
                        == dual_regularity_naive(g, c)), (g.edges, c)


def test_dual_regularity_equals_full_homology_oracle():
    # every non-cone cover's complex in full, against the search that stops
    # at the first size whose dimension cannot beat the best degree found
    for n in range(2, 8):
        for g in enumerate_graphs(n, "no-isolated"):
            for c in ((2, 3, 0) if n <= 6 else (2,)):
                assert (dual_regularity(g, FieldSpec(c))
                        == dual_regularity_full(g, c)), (g.edges, c)
    for n in range(8, 12):
        seeded = (random_graph(n, (.3, .5, .7)[s % 3], s) for s in range(40))
        for g in [g for g in seeded if not isolated_vertices(g)][:3]:
            for c in (2, 3, 0):
                assert (dual_regularity(g, FieldSpec(c))
                        == dual_regularity_full(g, c)), (g.edges, c)


def test_dual_check_of_flag_rp2_depends_on_the_field():
    # over GF(2) only K_V, the non-cover complex of I empty, reaches degree
    # 7 (2-torsion); 61 other covers reach degree 6 over each field. K_V
    # ties with the size-one covers and is visited after them, at floor 7,
    # so a search that stops a degree early or drops a tied cover gives 8
    g = from_graph6("JhW[X`LtKF?")
    for field, want in ((GF2, 9), (QQ, 8)):
        rep = dual_check(g, field)
        assert (rep.reg_dual, rep.pd_primal) == (want, want), field
        assert rep.tau_max <= want


def test_terai_on_corpus(isolate_free_corpus):
    for g in isolate_free_corpus[:20]:
        rep = dual_check(g)
        assert rep.identity_holds and rep.dominates_tau


def test_reg_between_induced_matching_and_matching(isolate_free_corpus):
    for g in isolate_free_corpus[:25]:
        _, r = pd_and_reg(g)
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
        pd, _ = pd_and_reg(g)
        assert tau_max(g) <= pd <= g.n - 1


def _tensor_naive(a, b):
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            out[i + k, j + l] = out.get((i + k, j + l), 0) + x * y
    return out


def test_additivity_under_disjoint_union(isolate_free_corpus):
    import random
    rng = random.Random(7)
    pool = [g for g in isolate_free_corpus if g.n <= 6]
    for _ in range(10):
        g, h = rng.sample(pool, 2)
        union = disjoint_union(g, h)
        padded = disjoint_union(union, Graph(2))
        for c in (2, 3, 0):
            field = FieldSpec(c)
            tg, th = betti_table(g, field), betti_table(h, field)
            t = betti_table(padded, field)
            assert t.entries == _tensor_naive(tg.entries, th.entries)
            assert (t.pd, t.reg) == (tg.pd + th.pd, tg.reg + th.reg)
        # the dual side does not split by components, so Terai's identity
        # checks the product independently
        assert dual_check(union).identity_holds, (g.edges, h.edges)


def test_field_disagreements_empty_on_small(small_corpus):
    for g in small_corpus[:12]:
        assert field_disagreements(g, (2, 3, 0)) == []


def test_flag_rp2_graph_betti_table_depends_on_characteristic():
    # An 11-vertex graph whose independence complex is a flag triangulation
    # of the real projective plane: H~_1 = H~_2 = GF(2), acyclic over GF(3)
    # and Q, so beta_{8,11} and beta_{9,11} (W = V) appear only over GF(2).
    g = from_graph6("JhW[X`LtKF?")
    assert (g.n, g.m) == (11, 25)
    cx = independence_complex(g)
    assert homology_dims(cx, GF2) == {1: 1, 2: 1}
    t = betti_table(g, GF2)
    assert (t.entry(8, 11), t.entry(9, 11), t.pd, t.reg) == (1, 1, 9, 3)
    for field in (GF3, QQ):
        assert homology_dims(cx, field) == {}
        t = betti_table(g, field)
        assert (t.entry(8, 11), t.entry(9, 11), t.pd, t.reg) == (0, 0, 8, 2)
    records = field_disagreements(g)
    assert [(r["characteristic"], r["against"]) for r in records] == [
        (3, 2), (0, 2)]


def test_pd_reg_bounds_hold_on_every_graph_to_n7():
    # so a pinned pair is the pair over each of the three fields
    pinned = 0
    for n in range(8):
        for g in enumerate_graphs(n):
            pd_lo, pd_hi, reg_lo, reg_hi = pd_reg_bounds(g)
            pinned += pd_lo == pd_hi and reg_lo == reg_hi
            for field in (GF2, GF3, QQ):
                t = betti_table(g, field)
                assert pd_lo <= t.pd <= pd_hi, (g.edges, field)
                assert reg_lo <= t.reg <= reg_hi, (g.edges, field)
    assert pinned == 1224  # of the 1,253 graphs


@pytest.mark.acceptance
def test_pd_reg_bounds_pinned_pairs_n8():
    for g in enumerate_graphs(8, "no-isolated"):
        pd_lo, pd_hi, reg_lo, reg_hi = pd_reg_bounds(g)
        if pd_lo == pd_hi and reg_lo == reg_hi:
            for field in (GF2, QQ):
                t = betti_table(g, field)
                assert (t.pd, t.reg) == (pd_lo, reg_lo), g.edges


def test_pd_reg_bounds_small_cases_and_cap(monkeypatch):
    assert pd_reg_bounds(Graph(0)) == (0, 0, 0, 0)
    assert pd_reg_bounds(Graph(3)) == (0, 0, 0, 0)
    assert pd_reg_bounds(two_k2()) == (2, 2, 2, 2)
    # C5: pd 3, reg 2, tau_max 3; its complement, a 5-cycle, is not
    # chordal, so reg >= 2 (Froberg). The pivot 0 leaves the edge 23 and
    # the path 1234, with pd 1 and 2 and reg 1, so
    # pd <= max(1 + 2, 2 + 1) = 3 and reg <= max(1, 1 + 1) = 2
    assert pd_reg_bounds(cycle_graph(5)) == (3, 3, 2, 2)
    assert pd_and_reg(cycle_graph(5)) == (3, 2)
    with pytest.raises(ResourceLimitError, match="EDGEIDEALS_MAX_BETTI_N"):
        pd_reg_bounds(path_graph(17))
    monkeypatch.setenv("EDGEIDEALS_MAX_BETTI_N", "18")
    assert pd_reg_bounds(path_graph(17))[:2] == (
        tau_max(path_graph(17)), tau_max(path_graph(17)))


def test_pd_reg_bounds_leave_flag_rp2_graph_unpinned():
    # the box holds GF(2)'s (9, 3) and Q's (8, 2): reg <= max(reg(G - x),
    # reg(G - N[x]) + 1) is a bound, and no recursion on it can be exact
    g = from_graph6("JhW[X`LtKF?")
    assert pd_reg_bounds(g) == (8, 9, 2, 3)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, pytest.param(
    8, marks=pytest.mark.acceptance)])
def test_certified_path_sums_exactly_where_the_box_is_open(n):
    # the lazy order decides "is the box a point?" as the whole box does
    for g in enumerate_graphs(n, "no-isolated"):
        pd_lo, pd_hi, reg_lo, reg_hi = pd_reg_bounds(g)
        point = pd_lo == pd_hi and reg_lo == reg_hi
        pair, summed = _certified_pd_and_reg(g, GF2)
        assert summed != point, g.edges
        if point:
            assert pair == (pd_lo, reg_lo), g.edges


def test_certified_path_computes_only_the_lower_bounds_it_needs(monkeypatch):
    calls = {"tau_max": 0, "induced_matching_number": 0}
    for name in calls:
        def counted(g, name=name, real=getattr(covers_module, name)):
            calls[name] += 1
            return real(g)
        monkeypatch.setattr(covers_module, name, counted)
    # C5, box (3, 3, 2, 2): reg_hi = 2 pins reg, and the greedy set {0, 2}
    # leaves a minimal cover of 3 = pd_hi vertices
    assert _certified_pd_and_reg(cycle_graph(5), GF2) == ((3, 2), False)
    assert calls == {"tau_max": 0, "induced_matching_number": 0}
    # the flag RP^2 graph, box (8, 9, 2, 3): nu = 2 < reg_hi leaves reg
    # open, so the pair is summed without a pd check
    g = from_graph6("JhW[X`LtKF?")
    assert _certified_pd_and_reg(g, GF2) == ((9, 3), True)
    assert calls == {"tau_max": 0, "induced_matching_number": 1}


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
