"""Exact reduced simplicial homology dimensions over GF(p) or the rationals.

Conventions (these decide degree-0 and degree-(-1) behavior downstream):

* Homology is reduced: the boundary operator in degree 0 is the
  augmentation onto the empty face, so a complex with c connected
  components has dim H~_0 = c - 1.
* A nonempty complex always contains the empty face; the complex {0}
  consisting of only the empty face has dim H~_{-1} = 1.
* The void complex (no faces at all) has every homology dimension 0.

A face is an int vertex mask, as everywhere in the package: bit v stands
for vertex v and the empty face is 0. The boundary of f is the faces
f ^ low, one per set bit low of f, signed alternately in ascending order.
`independence_complex(g, w)` builds Ind(G[W]) for a vertex mask w of g
with faces in g's own labels, so no induced subgraph is relabeled first.
`top_homology_degree` answers "the largest nonzero degree at or above a
floor" from a list of generators, building faces from the top down only
as far as that answer needs.

Ranks are exact. Over GF(2) boundary columns are bitmasks eliminated by
XOR (`_rank_gf2`); over GF(p) for odd p and over Q one sparse kernel
(`_rank_sparse`) eliminates rows stored as {column: coefficient} dicts with
a division-free step, so a boundary row keeps its k + 1 nonzeros instead
of being expanded to a dense list.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd
from typing import Iterable

from .errors import ParameterRangeError
from .graphs import Graph


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 means the rationals, otherwise a
    prime p means GF(p)."""

    characteristic: int

    def __post_init__(self):
        c = self.characteristic
        if c != 0 and not _is_prime(c):
            raise ParameterRangeError(
                f"field characteristic must be 0 or a prime, got {c}")

    def __str__(self) -> str:
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
QQ = FieldSpec(0)


class SimplicialComplex:
    """A finite simplicial complex stored as faces grouped by dimension.

    faces_by_dim[k] lists the k-faces as vertex masks (bit v for vertex v),
    in the deterministic order produced by the constructor; dimension -1
    holds the empty face 0 whenever the complex is nonempty.
    """

    __slots__ = ("faces_by_dim",)

    def __init__(self, faces_by_dim: dict[int, list[int]]):
        self.faces_by_dim = faces_by_dim

    @classmethod
    def from_facets(cls, facets: Iterable[int]) -> "SimplicialComplex":
        """The complex generated by the given face masks, which need not be
        maximal: their downward closure, in ascending mask order within
        each dimension."""
        seen: set[int] = set()
        for f in facets:
            if f not in seen:  # seen is downward closed
                seen.add(0)
                sub = f
                while sub:
                    seen.add(sub)
                    sub = (sub - 1) & f
        by_dim: dict[int, list[int]] = {}
        for face in sorted(seen):
            by_dim.setdefault(face.bit_count() - 1, []).append(face)
        return cls(by_dim)

    @classmethod
    def void(cls) -> "SimplicialComplex":
        return cls({})

    @property
    def dim(self) -> int:
        """-2 for the void complex, -1 for {0}, else the top face dimension."""
        return max(self.faces_by_dim, default=-2)

    @property
    def is_void(self) -> bool:
        return not self.faces_by_dim

    def face_count(self, k: int) -> int:
        return len(self.faces_by_dim.get(k, ()))


def independence_complex(g: Graph, w: int | None = None) -> SimplicialComplex:
    """Ind(G[W]): faces are the independent sets of g inside the vertex
    mask w (all of g when w is None), the empty set included, as masks in
    g's own labels.

    Each k-face grows into the (k+1)-faces that add one vertex above its
    largest, in ascending vertex order, so face lists are lexicographically
    sorted within each dimension. `free` holds the vertices a face can
    still take: those of w above its largest with no neighbour in it.
    """
    masks = g.masks
    by_dim: dict[int, list[int]] = {-1: [0]}
    level = [(0, (1 << g.n) - 1 if w is None else w)]
    for k in range(g.n):
        grown = []
        for face, free in level:
            while free:  # ascending, so free is left with the vertices above
                low = free & -free
                free ^= low
                grown.append((face | low, free & ~masks[low.bit_length() - 1]))
        if not grown:
            break
        by_dim[k] = [face for face, _ in grown]
        level = grown
    return SimplicialComplex(by_dim)


def _rank_gf2(cols: list[int]) -> int:
    """Rank over GF(2) of a matrix given as column bitmasks (bit i = row i)."""
    pivots: dict[int, int] = {}
    rank = 0
    for col in cols:
        while col:
            low = col.bit_length() - 1
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                rank += 1
                break
            col ^= other
    return rank


def _rank_sparse(rows: list[dict[int, int]], p: int) -> int:
    """Rank over GF(p), or over the rationals when p == 0, of a matrix given
    as sparse rows {column: coefficient}.

    Each row is reduced against pivot rows keyed on their leading (highest)
    column by the division-free step row <- a*row - b*prow, where a is the
    pivot's leading entry and b the row's entry there, until it is empty or
    becomes a new pivot. Over GF(p) the row is reduced mod p before each
    step; over Q each new pivot row is divided by the gcd of its entries.
    Every step is an invertible row operation over the field, so the rank
    is exact. The rows passed in are not modified.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while True:
            if p:
                row = {c: x % p for c, x in row.items() if x % p}
            else:
                row = {c: x for c, x in row.items() if x}
            if not row:
                break
            low = max(row)
            prow = pivots.get(low)
            if prow is None:
                if not p:
                    g = gcd(*row.values())
                    if g > 1:
                        row = {c: x // g for c, x in row.items()}
                pivots[low] = row
                break
            a, b = prow[low], row[low]
            # row was just rebuilt above, so it may be updated in place
            if a != 1:
                row = {c: a * x for c, x in row.items()}
            for c, y in prow.items():
                row[c] = row.get(c, 0) - b * y
    return len(pivots)


def _boundary_rank(faces: list[int], below: list[int],
                   field: FieldSpec) -> int:
    """Rank of the reduced boundary operator from the k-faces `faces` onto
    `below`, which lists every (k-1)-face of the complex."""
    if not faces or not below:
        return 0
    index = {f: i for i, f in enumerate(below)}
    gf2 = field.characteristic == 2
    matrix = []
    for f in faces:
        col, row, sign, m = 0, {}, 1, f
        while m:
            low = m & -m
            m ^= low
            if gf2:
                col |= 1 << index[f ^ low]
            else:
                row[index[f ^ low]] = sign
                sign = -sign
        matrix.append(col if gf2 else row)
    if gf2:
        return _rank_gf2(matrix)
    return _rank_sparse(matrix, field.characteristic)


def homology_dims(cx: SimplicialComplex, field: FieldSpec = GF2) -> dict[int, int]:
    """All nonzero reduced homology dimensions, as a map k -> dim H~_k."""
    if cx.is_void:
        return {}
    faces = cx.faces_by_dim
    top = cx.dim
    ranks = {k: _boundary_rank(faces.get(k, []), faces.get(k - 1, []), field)
             for k in range(0, top + 1)}
    ranks[top + 1] = 0
    ranks[-1] = 0
    out = {}
    for k in range(-1, top + 1):
        d = cx.face_count(k) - ranks.get(k, 0) - ranks[k + 1]
        if d:
            out[k] = d
    return out


def top_homology_degree(facets: Iterable[int], floor: int,
                        field: FieldSpec = GF2) -> int | None:
    """The largest k >= floor with dim H~_k != 0, over field, of the complex
    generated by the face masks `facets` (which need not be maximal), or
    None when there is none.

    The degrees are tried from the top down: the k-faces are built from the
    (k+1)-faces by dropping one vertex, plus the generators of k + 1
    vertices, and dim H~_k = f_k - rank d_k - rank d_{k+1} takes d_{k+1}'s
    rank from the step before. The search stops at the first nonzero
    degree, so no face below dimension floor - 1, and none below the
    answer's k - 1, is ever built. It also stops once the (k-1)-faces are
    all C(v, k) k-subsets of the v vertices: below there the complex is
    the full simplex, exact, so H~_j = 0 for j < k - 1, and
    rank d_{k-1} = C(v - 1, k - 1) gives dim H~_{k-1} = C(v - 1, k) -
    rank d_k with no further face built.
    """
    by_size: dict[int, set[int]] = {}
    span = 0
    for f in facets:
        by_size.setdefault(f.bit_count(), set()).add(f)
        span |= f
    if not by_size:
        return None
    v = span.bit_count()
    top = max(by_size) - 1
    level = sorted(by_size[top + 1])
    rank_above = 0
    for k in range(top, floor - 1, -1):
        below = by_size.get(k, set())
        for f in level:
            m = f
            while m:
                low = m & -m
                m ^= low
                below.add(f ^ low)
        below = sorted(below)
        rank = _boundary_rank(level, below, field)
        if len(level) - rank - rank_above:
            return k
        if k - 1 >= floor and len(below) == comb(v, k):  # full skeleton
            return k - 1 if comb(v - 1, k) - rank else None
        level, rank_above = below, rank
    return None


def reduced_euler_characteristic(cx: SimplicialComplex) -> int:
    """Alternating sum of face counts including the empty face; equals the
    alternating sum of reduced homology dimensions."""
    return sum((-1) ** k * len(faces) for k, faces in cx.faces_by_dim.items())
