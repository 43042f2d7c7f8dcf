import math

import pytest

from edgeideals.betti import betti_table, pd_and_reg, pd_reg_bounds
from edgeideals.covers import tau_max
from edgeideals.errors import ParameterRangeError
from edgeideals.families import complete_bipartite, pendant_clique, two_k2
from edgeideals.graphs import is_chordal, is_gap_free, isolated_vertices
from edgeideals.spectrum import (build_pdr_graph, build_spectrum_graph,
                                 ceil_sqrt, cover_lower_bound, pdr_range,
                                 plan_spectrum)


def test_ceil_sqrt_and_lower_bound():
    for x in range(0, 200):
        assert ceil_sqrt(x) == math.ceil(math.sqrt(x))
    for n in range(1, 200):
        assert cover_lower_bound(n) == math.ceil(2 * math.sqrt(n) - 2)


def test_plan_examples():
    plan = plan_spectrum(9, 4)
    assert (plan.clique_size, plan.group_budget, plan.group_size,
            plan.extra_cap) == (3, 3, 3, 0)
    assert plan.extra_block_sizes == (0, 0, 0)

    plan = plan_spectrum(10, 5)
    assert (plan.clique_size, plan.group_budget, plan.group_size,
            plan.extra_cap) == (4, 3, 2, 1)
    assert plan.extra_block_sizes == (1, 1, 0, 0)

    plan = plan_spectrum(12, 6)
    assert (plan.clique_size, plan.group_budget, plan.group_size,
            plan.extra_cap) == (4, 4, 2, 2)
    assert plan.extra_block_sizes == (2, 2, 0, 0)


def test_plan_identities_for_all_legal_pairs():
    for n in range(2, 40):
        for p in range(cover_lower_bound(n), n - 1):
            plan = plan_spectrum(n, p)
            s, T = plan.clique_size, plan.group_budget
            assert s * T == (p + 2) ** 2 // 4 >= n
            assert s + T == p + 2 <= n
            plan.validate()


def test_plan_range_errors():
    with pytest.raises(ParameterRangeError):
        plan_spectrum(9, 3)       # below lower bound
    with pytest.raises(ParameterRangeError):
        plan_spectrum(9, 8)       # p = n - 1 is not plan territory
    with pytest.raises(ParameterRangeError):
        plan_spectrum(1, 0)


def test_build_special_cases():
    assert build_spectrum_graph(5, 4) == complete_bipartite(1, 4)
    g = build_spectrum_graph(9, 4)
    from edgeideals.atlas import recognize_family
    assert recognize_family(g).kind == "hs" and recognize_family(g).s == 3
    assert build_spectrum_graph(2, 1) == complete_bipartite(1, 1)


def test_build_spectrum_graph_full_sweep():
    for n in range(2, 25):
        for p in range(cover_lower_bound(n), n):
            g = build_spectrum_graph(n, p)
            assert g.n == n
            assert not isolated_vertices(g)
            assert tau_max(g) == p
            assert is_chordal(g) and is_gap_free(g)


def test_spectrum_pd_reg_small():
    for n in range(2, 11):
        for p in range(cover_lower_bound(n), n):
            assert pd_and_reg(build_spectrum_graph(n, p)) == (p, 1)


def test_spectrum_graphs_get_point_box_from_complement():
    # the complement of a spectrum graph is chordal, so pd_reg_bounds
    # gives the closed form (p, 1) with no subset visited; the Hochster
    # sum agrees up to the Betti cap
    for n in range(2, 17):
        for p in range(cover_lower_bound(n), n):
            g = build_spectrum_graph(n, p)
            assert pd_reg_bounds(g) == (p, p, 1, 1), (n, p)
            t = betti_table(g)
            assert (t.pd, t.reg) == (p, 1), (n, p)


def test_build_spectrum_examples():
    g = build_spectrum_graph(10, 5)
    assert tau_max(g) == 5 and is_chordal(g) and is_gap_free(g)
    assert pd_and_reg(g) == (5, 1)


def test_pdr_range_exact_arithmetic():
    low, high = pdr_range(8, 2)
    # exact bound 2*sqrt(6) + 2 - 3 ~ 1.899 -> integer p >= 2... and p <= 6
    assert low == cover_lower_bound(6) + 1 and high == 6
    with pytest.raises(ParameterRangeError):
        pdr_range(8, 5)  # r > n/2


def test_build_pdr_graph():
    assert build_pdr_graph(4, 2, 2) == two_k2()
    g = build_pdr_graph(8, 5, 2)
    assert g.n == 8
    assert pd_and_reg(g) == (5, 2)
    # r = 1 adds nothing
    assert build_pdr_graph(9, 4, 1) == build_spectrum_graph(9, 4)
    with pytest.raises(ParameterRangeError):
        build_pdr_graph(8, 7, 2)


def test_pdr_graph_full_sweep_small():
    for n in range(2, 11):
        for r in range(1, n // 2 + 1):
            low, high = pdr_range(n, r)
            for p in range(low, high + 1):
                g = build_pdr_graph(n, p, r)
                assert g.n == n
                assert pd_and_reg(g) == (p, r)


def test_pdr_graph_sweep_13_14():
    for n in (13, 14):
        for r in range(1, n // 2 + 1):
            low, high = pdr_range(n, r)
            for p in range(low, high + 1):
                assert pd_and_reg(build_pdr_graph(n, p, r)) == (p, r)


def test_pendant_clique_consistency():
    # perfect squares with p = 2*sqrt(n) - 2 reproduce the pendant clique
    from edgeideals.atlas import canonical_bits
    for a in (2, 3, 4):
        g = build_spectrum_graph(a * a, 2 * a - 2)
        h = pendant_clique(a)
        assert canonical_bits(g.masks, g.n) == canonical_bits(h.masks, h.n)
