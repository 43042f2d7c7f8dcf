"""Exact reduced simplicial homology dimensions over GF(p) or the rationals.

Conventions (these decide degree-0 and degree-(-1) behavior downstream):

* Homology is reduced: the boundary operator in degree 0 is the
  augmentation onto the empty face, so a complex with c connected
  components has dim H~_0 = c - 1.
* A nonempty complex always contains the empty face; the complex {()}
  consisting of only the empty face has dim H~_{-1} = 1.
* The void complex (no faces at all) has every homology dimension 0.

Ranks are exact: bitset Gaussian elimination over GF(2), modular
elimination for odd primes, fraction-free (Bareiss) elimination over the
rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

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

    faces_by_dim[k] lists the k-faces as sorted vertex tuples, in the
    deterministic order produced by the constructor; dimension -1 holds the
    empty face whenever the complex is nonempty.
    """

    __slots__ = ("faces_by_dim",)

    def __init__(self, faces_by_dim: dict[int, list[tuple[int, ...]]]):
        self.faces_by_dim = faces_by_dim

    @classmethod
    def from_facets(cls, facets: Iterable[tuple[int, ...]]) -> "SimplicialComplex":
        """Downward closure of the given faces (tests and small examples)."""
        from itertools import combinations
        seen: set[tuple[int, ...]] = set()
        for f in facets:
            f = tuple(sorted(f))
            for size in range(len(f) + 1):
                seen.update(combinations(f, size))
        by_dim: dict[int, list[tuple[int, ...]]] = {}
        for face in sorted(seen, key=lambda t: (len(t), t)):
            by_dim.setdefault(len(face) - 1, []).append(face)
        return cls(by_dim)

    @classmethod
    def void(cls) -> "SimplicialComplex":
        return cls({})

    @property
    def dim(self) -> int:
        """-2 for the void complex, -1 for {()}, else the top face dimension."""
        return max(self.faces_by_dim, default=-2)

    @property
    def is_void(self) -> bool:
        return not self.faces_by_dim

    def f_vector(self) -> dict[int, int]:
        return {k: len(faces) for k, faces in self.faces_by_dim.items()}

    def face_count(self, k: int) -> int:
        return len(self.faces_by_dim.get(k, ()))


def independence_complex(g: Graph) -> SimplicialComplex:
    """Faces are the independent sets of g (the empty set included).

    Enumeration is by backtracking over vertices in increasing order, so
    face lists are lexicographically sorted within each dimension.
    """
    masks = g.masks
    by_dim: dict[int, list[tuple[int, ...]]] = {-1: [()]}
    current: list[int] = []

    def extend(start: int, closed: int):
        for v in range(start, g.n):
            if closed >> v & 1:
                continue
            current.append(v)
            by_dim.setdefault(len(current) - 1, []).append(tuple(current))
            extend(v + 1, closed | masks[v])
            current.pop()

    extend(0, 0)
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


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) by in-place modular Gaussian elimination."""
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][c] % p:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        prow = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _rank_bareiss(rows: list[list[int]]) -> int:
    """Rank over the rationals via fraction-free (Bareiss) elimination on
    integer entries; all intermediate values stay integral."""
    if not rows or not rows[0]:
        return 0
    m, n = len(rows), len(rows[0])
    rank = 0
    prev = 1
    c = 0
    while rank < m and c < n:
        pivot = None
        for r in range(rank, m):
            if rows[r][c]:
                pivot = r
                break
        if pivot is None:
            c += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for r in range(rank + 1, m):
            rr = rows[r]
            f = rr[c]
            rows[r] = [(pr[c] * rr[j] - f * pr[j]) // prev for j in range(n)]
        prev = pr[c]
        rank += 1
        c += 1
    return rank


def _boundary_rank(cx: SimplicialComplex, k: int, field: FieldSpec) -> int:
    """Rank of the reduced boundary operator C_k -> C_{k-1}."""
    faces = cx.faces_by_dim.get(k)
    below = cx.faces_by_dim.get(k - 1)
    if not faces or not below:
        return 0
    index = {f: i for i, f in enumerate(below)}
    if field.characteristic == 2:
        cols = []
        for f in faces:
            col = 0
            for i in range(len(f)):
                col |= 1 << index[f[:i] + f[i + 1:]]
            cols.append(col)
        return _rank_gf2(cols)
    rows = []
    for f in faces:
        row = [0] * len(below)
        sign = 1
        for i in range(len(f)):
            row[index[f[:i] + f[i + 1:]]] = sign
            sign = -sign
        rows.append(row)
    if field.characteristic == 0:
        return _rank_bareiss(rows)
    return _rank_mod_p(rows, field.characteristic)


def homology_dims(cx: SimplicialComplex, field: FieldSpec = GF2) -> dict[int, int]:
    """All nonzero reduced homology dimensions, as a map k -> dim H~_k."""
    if cx.is_void:
        return {}
    top = cx.dim
    ranks = {k: _boundary_rank(cx, k, field) for k in range(0, top + 1)}
    ranks[top + 1] = 0
    ranks[-1] = 0
    out = {}
    for k in range(-1, top + 1):
        d = cx.face_count(k) - ranks.get(k, 0) - ranks[k + 1]
        if d:
            out[k] = d
    return out


def reduced_homology_dim(cx: SimplicialComplex, k: int,
                         field: FieldSpec = GF2) -> int:
    """dim H~_k(cx; field); 0 for any k outside the complex's range."""
    if cx.is_void or k < -1 or k > cx.dim:
        return 0
    return (cx.face_count(k) - _boundary_rank(cx, k, field)
            - _boundary_rank(cx, k + 1, field))


def reduced_euler_characteristic(cx: SimplicialComplex) -> int:
    """Alternating sum of face counts including the empty face; equals the
    alternating sum of reduced homology dimensions."""
    return sum((-1) ** k * len(faces) for k, faces in cx.faces_by_dim.items())
