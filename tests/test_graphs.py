import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeideals.atlas import enumerate_graphs
from edgeideals.errors import ParameterRangeError
from edgeideals.families import (complete_graph, cycle_graph, path_graph,
                                 pendant_clique, two_k2)
from edgeideals.graphs import (Graph, _bits, _chordal_separator, _components,
                               complement, is_bipartite, is_chordal,
                               is_connected, is_gap_free, isolated_vertices)
from oracles import (disjoint_union, induced_subgraph, is_chordal_bruteforce,
                     least_separator_bruteforce, relabel)


def graph_strategy(max_n=7):
    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [e for e in pairs if draw(st.booleans())]
        return Graph(n, edges)
    return build()


def test_basic_invariants():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    assert g.neighbors(1) == {0, 2}
    assert g.degree_sequence() == (2, 2, 1, 1)
    assert g.has_edge(2, 1) and not g.has_edge(0, 2)


def test_adjacency_is_symmetric_and_irreflexive(small_corpus):
    for g in small_corpus:
        for u in range(g.n):
            assert not g.has_edge(u, u)
            for v in g.neighbors(u):
                assert u in g.neighbors(v)
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


def test_construction_errors():
    with pytest.raises(ParameterRangeError):
        Graph(-1)
    with pytest.raises(ParameterRangeError):
        Graph(2, [(0, 2)])
    with pytest.raises(ParameterRangeError):
        Graph(2, [(1, 1)])


def test_degenerate_sizes_are_legal():
    assert Graph(0).m == 0
    assert Graph(1).degree(0) == 0
    assert is_chordal(Graph(0)) and is_gap_free(Graph(1))


@given(graph_strategy())
@settings(max_examples=60, deadline=None)
def test_complement_involution(g):
    assert complement(complement(g)) == g


@given(st.integers(0, (1 << 12) - 1))
def test_bits_ascending_and_rebuilds_mask(mask):
    bits = _bits(mask)
    assert isinstance(bits, tuple)
    assert all(a < b for a, b in zip(bits, bits[1:]))
    assert sum(1 << b for b in bits) == mask


def test_complement_of_complete_is_empty():
    assert complement(complete_graph(4)) == Graph(4)


def test_disjoint_union_counts_add():
    g, h = cycle_graph(3), path_graph(2)
    u = disjoint_union(g, h)
    assert u.n == g.n + h.n and u.m == g.m + h.m
    assert u.has_edge(3, 4) and not u.has_edge(2, 3)
    assert disjoint_union(complete_graph(2), complete_graph(2)) == two_k2()


def test_induced_subgraph_preserves_relative_order():
    c5 = cycle_graph(5)
    sub = induced_subgraph(c5, {0, 1, 2})
    assert sub == path_graph(2)
    assert induced_subgraph(c5, range(5)) == c5
    assert induced_subgraph(c5, ()) == Graph(0)
    with pytest.raises(ParameterRangeError):
        induced_subgraph(c5, {4, 5})


def test_isolated_vertices():
    g = Graph(4, [(1, 2)])
    assert isolated_vertices(g) == {0, 3}
    assert isolated_vertices(cycle_graph(3)) == frozenset()


def test_connectivity_and_bipartiteness():
    assert is_connected(cycle_graph(5))
    assert not is_connected(two_k2())
    assert is_connected(Graph(0)) and is_connected(Graph(1))
    assert not is_connected(Graph(2))
    assert is_bipartite(cycle_graph(6))
    assert not is_bipartite(cycle_graph(5))
    assert is_bipartite(two_k2())


def test_components_of_induced_subgraphs():
    c6 = cycle_graph(6)
    assert _components(c6.masks, 0b111111) == [0b111111]
    assert _components(c6.masks, 0b110110) == [0b000110, 0b110000]
    assert _components(c6.masks, 0b101010) == [0b10, 0b1000, 0b100000]
    assert _components(c6.masks, 0) == []
    assert _components(two_k2().masks, 0b1111) == [0b0011, 0b1100]


def test_chordal_known_cases():
    assert not is_chordal(cycle_graph(4))
    assert not is_chordal(cycle_graph(6))
    assert is_chordal(complete_graph(5))
    assert is_chordal(path_graph(4))
    for s in range(1, 9):
        assert is_chordal(pendant_clique(s))


def test_chordal_scales_to_thousands_of_vertices():
    # 9,999 isolated vertices is the 7-byte edge list `9999 0`, so a
    # search quadratic in n would let a tiny input stall `invariants`
    for g, chordal in ((Graph(9999), True), (path_graph(3000), True),
                       (cycle_graph(3000), False)):
        start = time.perf_counter()
        assert is_chordal(g) is chordal, g.n
        assert time.perf_counter() - start < 2.0, g.n


def test_chordal_agrees_with_bruteforce(small_corpus):
    every_class = [g for n in range(8) for g in enumerate_graphs(n)]
    for g in [g for g in small_corpus if g.n <= 7] + every_class:
        assert is_chordal(g) == is_chordal_bruteforce(g), g.edges


def test_chordal_separator_is_the_vertex_connectivity(small_corpus):
    # maximum cardinality search reads the least minimal separator of a
    # chordal graph off its visit order, on any labelling
    every_class = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    for g in [g for g in small_corpus if g.n <= 7] + every_class:
        want = (least_separator_bruteforce(g) if is_chordal_bruteforce(g)
                else None)
        assert _chordal_separator(g.masks) == want, g.edges
    assert _chordal_separator(Graph(3).masks) == 0
    assert _chordal_separator(complete_graph(5).masks) == 4
    assert _chordal_separator(path_graph(6).masks) == 1


def test_gap_free_known_cases():
    assert not is_gap_free(two_k2())
    assert is_gap_free(pendant_clique(4))
    assert is_gap_free(cycle_graph(5))
    assert not is_gap_free(cycle_graph(6))
    assert is_gap_free(Graph(3))


def test_relabel_roundtrip():
    g = cycle_graph(5)
    perm = [2, 0, 4, 1, 3]
    inv = [perm.index(i) for i in range(5)]
    assert relabel(relabel(g, perm), inv) == g
