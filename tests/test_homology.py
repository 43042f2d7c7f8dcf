import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeideals.errors import ParameterRangeError
from edgeideals.families import complete_graph, cycle_graph, two_k2
from edgeideals.graphs import Graph, _bits
from edgeideals.homology import (GF2, GF3, QQ, FieldSpec, SimplicialComplex,
                                 _boundary_rank, _rank_sparse, homology_dims,
                                 independence_complex,
                                 reduced_euler_characteristic,
                                 top_homology_degree)
from oracles import (_rank_fraction, _rank_modp, all_subsets,
                     homology_dims_naive, independent_sets_bruteforce)


def mask(vertices) -> int:
    return sum(1 << v for v in set(vertices))


def face_tuples(cx) -> list[tuple[int, ...]]:
    """Every face of cx as a sorted vertex tuple, the oracles' format."""
    return [_bits(f) for faces in cx.faces_by_dim.values() for f in faces]


def euler_balanced(cx, field):
    dims = homology_dims(cx, field)
    return reduced_euler_characteristic(cx) == sum(
        (-1) ** k * d for k, d in dims.items())


def test_field_spec_validation():
    assert str(FieldSpec(0)) == "QQ"
    assert str(FieldSpec(7)) == "GF(7)"
    with pytest.raises(ParameterRangeError):
        FieldSpec(4)
    with pytest.raises(ParameterRangeError):
        FieldSpec(-3)


def test_independence_complex_contents():
    cx = independence_complex(complete_graph(3))
    assert cx.faces_by_dim == {-1: [0], 0: [0b001, 0b010, 0b100]}
    full = independence_complex(Graph(3))
    assert full.face_count(2) == 1 and full.dim == 2
    c4 = independence_complex(cycle_graph(4))
    assert c4.faces_by_dim[1] == [mask((0, 2)), mask((1, 3))]


def test_independence_complex_faces_equal_bruteforce(small_corpus):
    for g in small_corpus[:50]:
        cx = independence_complex(g)
        assert sorted(face_tuples(cx)) == sorted(independent_sets_bruteforce(g))


def test_known_homology():
    two_points = SimplicialComplex.from_facets([0b01, 0b10])
    assert homology_dims(two_points).get(0, 0) == 1
    hollow = SimplicialComplex.from_facets([0b011, 0b110, 0b101])
    assert homology_dims(hollow).get(1, 0) == 1
    assert homology_dims(hollow).get(0, 0) == 0
    solid = SimplicialComplex.from_facets([0b1111])
    assert homology_dims(solid) == {}
    assert homology_dims(SimplicialComplex.from_facets([0])) == {-1: 1}
    assert homology_dims(SimplicialComplex.void()) == {}


def test_out_of_range_dims_are_zero():
    cx = SimplicialComplex.from_facets([0b11])
    assert homology_dims(cx).get(5, 0) == 0
    assert homology_dims(cx).get(-2, 0) == 0


def test_sphere_boundary_of_simplex():
    # boundary of the 3-simplex: a 2-sphere
    facets = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    cx = SimplicialComplex.from_facets(mask(f) for f in facets)
    for field in (GF2, GF3, QQ):
        assert homology_dims(cx, field) == {2: 1}


def test_ind_complexes_of_small_graphs():
    assert homology_dims(independence_complex(cycle_graph(4))) == {0: 1}
    assert homology_dims(independence_complex(two_k2())) == {1: 1}
    # Ind(C5) is a 5-cycle again (the pentagram): one 1-dimensional hole
    assert homology_dims(independence_complex(cycle_graph(5))) == {1: 1}
    # Ind(C6): known homotopy type S^1 wedge S^1? dimension check via naive oracle
    for g in (cycle_graph(6), cycle_graph(7)):
        cx = independence_complex(g)
        assert homology_dims(cx, GF2) == homology_dims_naive(face_tuples(cx), 2)


def test_fields_agree_on_small_graphs(small_corpus):
    for g in small_corpus[:40]:
        cx = independence_complex(g)
        d2 = homology_dims(cx, GF2)
        assert d2 == homology_dims(cx, GF3) == homology_dims(cx, QQ)


def test_against_naive_oracle(small_corpus):
    for g in small_corpus[:40]:
        cx = independence_complex(g)
        faces = face_tuples(cx)
        for field in (GF2, GF3, QQ):
            assert homology_dims(cx, field) == homology_dims_naive(
                faces, field.characteristic)


def test_euler_poincare_everywhere(small_corpus):
    complexes = [independence_complex(g) for g in small_corpus[:60]]
    complexes += [SimplicialComplex.from_facets([0b00111, 0b01100, 0b10000]),
                  SimplicialComplex.from_facets([0]),
                  SimplicialComplex.void()]
    for cx in complexes:
        for field in (GF2, GF3, QQ):
            assert euler_balanced(cx, field)


def test_rank_bound_invariant(small_corpus):
    for g in small_corpus[:30]:
        cx = independence_complex(g)
        faces = cx.faces_by_dim
        for field in (GF2, GF3, QQ):
            for k in range(0, cx.dim + 1):
                rk = _boundary_rank(faces[k], faces[k - 1], field)
                rk1 = _boundary_rank(faces.get(k + 1, []), faces[k], field)
                assert rk + rk1 <= cx.face_count(k)


@st.composite
def integer_matrices(draw):
    """Integer matrices up to 9 x 9 whose nonzero entries come from
    +-{1, 2, 3, 4, 6}, so that pivots other than +-1 occur and entries
    vanish mod 2 and mod 3; some rows are integer combinations of the rows
    before them, so the rank is often short of full."""
    nrows = draw(st.integers(1, 9))
    ncols = draw(st.integers(1, 9))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -3, 4, -4, 6, -6))
    rows = []
    for r in range(nrows):
        if r and draw(st.booleans()):
            coefs = draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
            rows.append([sum(c * row[j] for c, row in zip(coefs, rows))
                         for j in range(ncols)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols,
                                      max_size=ncols)))
    return rows


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_sparse_rank_equals_dense_oracles(rows):
    sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
    assert _rank_sparse(sparse, 0) == _rank_fraction(rows)
    for p in (2, 3, 5, 7):
        assert _rank_sparse(sparse, p) == _rank_modp(rows, p)


@st.composite
def facet_masks(draw):
    """Up to six facet masks over vertices 0..7. Half the time they are the
    sets W - A for one vertex set W, which may have gaps, and A of one or
    two vertices: the shape of the generators W - (e & W) of the non-cover
    complex over a cover W. Otherwise they are arbitrary masks."""
    n = draw(st.integers(1, 8))
    w = draw(st.integers(0, (1 << n) - 1))
    if draw(st.booleans()):
        cuts = st.lists(st.sampled_from(range(n)), min_size=1, max_size=2)
        return [w & ~mask(c) for c in draw(st.lists(cuts, max_size=6))]
    return draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))


@settings(max_examples=200, deadline=None)
@given(facet_masks())
def test_from_facets_equals_bruteforce_closure(facets):
    cx = SimplicialComplex.from_facets(facets)
    closure = {s for f in facets for s in all_subsets(_bits(f))}
    faces = face_tuples(cx)
    assert len(faces) == len(closure) and set(faces) == closure
    for k, fs in cx.faces_by_dim.items():
        assert fs == sorted(fs) and all(f.bit_count() == k + 1 for f in fs)
    for field in (GF2, GF3, QQ):
        assert homology_dims(cx, field) == homology_dims_naive(
            faces, field.characteristic)


@settings(max_examples=200, deadline=None)
@given(facet_masks())
def test_top_homology_degree_equals_full_homology(facets):
    cx = SimplicialComplex.from_facets(facets)
    for field in (GF2, GF3, QQ):
        dims = homology_dims(cx, field)
        for floor in range(-1, cx.dim + 2):
            want = max((k for k in dims if k >= floor), default=None)
            assert top_homology_degree(facets, floor, field) == want, (
                floor, field)
