import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeideals.errors import GraphParseError, ParameterRangeError
from edgeideals.families import complete_graph, cycle_graph, pendant_clique
from edgeideals.gio import (emit_graph, from_edge_list, from_graph6,
                            parse_graph, to_edge_list, to_graph6)
from edgeideals.graphs import Graph
from edgeideals.atlas import canonical_bits, enumerate_graphs
from oracles import graph6_bitwise


def test_known_graph6_strings():
    assert to_graph6(complete_graph(2)) == "A_"
    assert to_graph6(complete_graph(3)) == "Bw"
    assert from_graph6("A_") == complete_graph(2)
    assert from_graph6("Bw") == complete_graph(3)


def test_graph6_roundtrip_small():
    for g in [Graph(0), Graph(1), Graph(5), cycle_graph(4), cycle_graph(7),
              complete_graph(6), pendant_clique(3)]:
        assert from_graph6(to_graph6(g)) == g


def test_graph6_roundtrip_idempotent():
    s = to_graph6(cycle_graph(4))
    assert to_graph6(from_graph6(s)) == s


def test_graph6_header_accepted():
    assert from_graph6(">>graph6<<Bw") == complete_graph(3)


def test_graph6_long_form_sizes():
    g = Graph(63, [(0, 62), (5, 40)])
    assert from_graph6(to_graph6(g)) == g


def test_graph6_canonical_comparison_roundtrip():
    g = pendant_clique(3)
    h = from_graph6(to_graph6(g))
    assert canonical_bits(h.masks, h.n) == canonical_bits(g.masks, g.n)


@pytest.mark.parametrize("text", [
    "", "A", "A_extra", "\x1f_", "~", "A_\x80",
])
def test_graph6_malformed(text):
    with pytest.raises(GraphParseError):
        from_graph6(text)


@pytest.mark.parametrize("text,message,pos", [
    ("~", "truncated graph6 size field", 1),
    ("~~????", "truncated graph6 size field", 6),
    ("A_\x80", "non-ASCII byte in graph6 input", 2),
    ("A>", "byte 62 outside graph6 range", 1),
    ("Bw@", "graph6 body has 2 bytes, expected 1 for n=3", 3),
    ("~??~", "graph6 body has 0 bytes, expected 326 for n=63", 4),
    ("B~", "nonzero padding bits in graph6 body", 1),
])
def test_graph6_errors_carry_positions(text, message, pos):
    with pytest.raises(GraphParseError) as err:
        from_graph6(text)
    assert (str(err.value), err.value.position) == (
        f"{message} (at position {pos})", pos)


def test_edge_list_roundtrip():
    g = cycle_graph(5)
    assert from_edge_list(to_edge_list(g)) == g
    assert from_edge_list("2 1\n0 1\n") == complete_graph(2)


@pytest.mark.parametrize("text,pos", [
    ("", 1),
    ("x y", 1),
    ("2 1\n0 2", 2),          # vertex out of range
    ("2 1\n1 1", 2),          # loop
    ("2 2\n0 1\n1 0", 3),     # duplicate edge
    ("2 2\n0 1", 1),          # wrong edge count
    ("\u00b2 0", 1),           # superscript 2: a digit to isdigit, not to int
    ("\u0663 0", 1),           # Arabic-Indic 3: int() would read it as 3
    ("2 1\n0 \u00b9", 2),      # superscript 1
    ("4 1\n--3 0", 2),        # two minus signs
])
def test_edge_list_errors_carry_positions(text, pos):
    with pytest.raises(GraphParseError) as err:
        from_edge_list(text)
    assert err.value.position == pos


def test_parse_graph_autodetects():
    assert parse_graph("2 1\n0 1\n") == complete_graph(2)
    assert parse_graph("Bw\n") == complete_graph(3)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    return Graph(n, edges)


@given(graphs())
@settings(max_examples=80, deadline=None)
def test_roundtrip_property(g):
    assert from_graph6(to_graph6(g)) == g
    assert from_edge_list(to_edge_list(g)) == g


def test_graph6_roundtrip_every_atlas_level_to_n7():
    for n in range(8):
        for g in enumerate_graphs(n):
            s = to_graph6(g)
            assert s == graph6_bitwise(g)
            assert from_graph6(s) == g


@st.composite
def wide_graphs(draw):
    # n = 63..70 takes the 4-byte size field
    n = draw(st.integers(0, 70))
    p = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return Graph(n, [(i, j) for j in range(n) for i in range(j)
                     if rng.random() < p])


@given(wide_graphs())
@settings(max_examples=150, deadline=None)
def test_graph6_columns_match_the_bitwise_format(g):
    s = to_graph6(g)
    assert s == graph6_bitwise(g)
    assert from_graph6(s) == g


def test_emit_graph_unknown_format_is_usage_error():
    # a format name is a parameter, not graph input
    with pytest.raises(ParameterRangeError, match="unknown graph format"):
        emit_graph(cycle_graph(4), "dot")
