import pytest

from edgeideals.errors import ParameterRangeError
from edgeideals.families import (_FAMILIES, FamilySpec, build_family,
                                 complete_bipartite, complete_graph,
                                 cycle_graph, extremal_pendant_clique,
                                 parse_family, path_graph, pendant_clique,
                                 two_k2)
from edgeideals.graphs import Graph, isolated_vertices


def test_pendant_clique_shape():
    g = pendant_clique(5)
    assert g.n == 25 and g.m == 10 + 20
    # s vertices of degree 2s-2 and s(s-1) of degree 1
    degs = g.degree_sequence()
    assert degs.count(8) == 5 and degs.count(1) == 20


@pytest.mark.parametrize("s", range(2, 8))
def test_pendant_clique_degree_profile(s):
    g = pendant_clique(s)
    assert g.n == s * s
    degs = [g.degree(v) for v in range(g.n)]
    assert degs[:s] == [2 * s - 2] * s
    assert degs[s:] == [1] * (s * s - s)
    # leaf blocks attach to clique vertices in order
    for i in range(s):
        block = range(s + i * (s - 1), s + (i + 1) * (s - 1))
        assert all(g.has_edge(i, v) for v in block)


def test_pendant_clique_degenerate():
    assert pendant_clique(1) == Graph(1)
    with pytest.raises(ParameterRangeError):
        pendant_clique(0)


def test_extremal_pendant_clique_small():
    # perfect square: plain pendant clique
    assert extremal_pendant_clique(25) == pendant_clique(5)
    # 27 = 25 + 2: leaves on the first two clique vertices
    g = extremal_pendant_clique(27)
    assert g.n == 27 and g.m == 32
    assert g.has_edge(0, 25) and g.has_edge(1, 26)
    # second leaf round
    g31 = extremal_pendant_clique(31)
    assert g31.n == 31 and g31.has_edge(0, 30)
    with pytest.raises(ParameterRangeError):
        extremal_pendant_clique(1)


def test_extremal_pendant_clique_has_no_isolates():
    for n in range(2, 40):
        assert not isolated_vertices(extremal_pendant_clique(n))


def test_extremal_pendant_clique_chordal_gap_free():
    from edgeideals.graphs import is_chordal, is_gap_free
    for n in range(2, 41):
        g = extremal_pendant_clique(n)
        assert is_chordal(g) and is_gap_free(g)


def test_named_families():
    assert complete_graph(4).m == 6
    assert complete_bipartite(2, 3).m == 6
    assert cycle_graph(5).degree_sequence() == (2,) * 5
    assert path_graph(3).n == 4 and path_graph(3).m == 3
    assert two_k2().degree_sequence() == (1, 1, 1, 1)
    with pytest.raises(ParameterRangeError):
        cycle_graph(2)


def test_pendant_clique_2_is_path_of_length_3():
    from edgeideals.atlas import canonical_bits
    g, p3 = pendant_clique(2), path_graph(3)
    assert canonical_bits(g.masks, 4) == canonical_bits(p3.masks, 4)


def test_build_family_dispatch():
    assert build_family(FamilySpec("hs", (3,))) == pendant_clique(3)
    assert build_family(FamilySpec("c", (4,))) == cycle_graph(4)
    assert build_family(FamilySpec("2k2")) == two_k2()
    assert build_family(FamilySpec("spectrum", (9, 4))).n == 9
    assert build_family(FamilySpec("pdr", (4, 2, 2))).n == 4
    with pytest.raises(ParameterRangeError):
        build_family(FamilySpec("hs", (1, 2)))
    with pytest.raises(ParameterRangeError):
        build_family(FamilySpec("nope", ()))


@pytest.mark.parametrize("args", [("c", (4, 5)), ("nope",)])
def test_family_spec_checked_at_construction(args):
    with pytest.raises(ParameterRangeError):
        FamilySpec(*args)


@pytest.mark.parametrize("text,expect", [
    ("c4", FamilySpec("c", (4,))),
    ("hs:5", FamilySpec("hs", (5,))),
    ("hs 5", FamilySpec("hs", (5,))),
    ("gn27", FamilySpec("gn", (27,))),
    ("2k2", FamilySpec("2k2")),
    ("k5", FamilySpec("k", (5,))),
    ("k1,4", FamilySpec("kb", (1, 4))),
    ("kb:3,3", FamilySpec("kb", (3, 3))),
    ("spectrum:10,5", FamilySpec("spectrum", (10, 5))),
    ("pdr:8,5,2", FamilySpec("pdr", (8, 5, 2))),
])
def test_parse_family(text, expect):
    assert parse_family(text) == expect


@pytest.mark.parametrize("text", ["", "c", "weird:1", "c4,5", "hs:"])
def test_parse_family_rejects(text):
    with pytest.raises(ParameterRangeError):
        parse_family(text)


def test_family_table_kinds_are_the_parsed_kinds():
    # every spec over short words and the table's own kinds, with 0..3
    # parameters: parse_family yields exactly the kinds of the table
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    words = set(alphabet) | {a + b for a in alphabet for b in alphabet}
    words |= set(_FAMILIES) | {"star", "cycle", "path", "spectrumx", "2k3"}
    parsed = set()
    for word in words:
        for arity in range(4):
            text = word + (":" + ",".join(["3"] * arity) if arity else "")
            try:
                spec = parse_family(text)
            except ParameterRangeError:
                continue
            assert len(spec.params) == _FAMILIES[spec.kind][0]
            parsed.add(spec.kind)
    assert parsed == set(_FAMILIES)
