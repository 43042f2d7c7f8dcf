"""Graded Betti tables of edge-ideal quotients via subset-wise homology.

For a graph G on n vertices the table entry in homological degree i and
internal degree j is the sum, over all j-subsets W of the vertices, of
dim H~_{j-i-1} of the independence complex of G[W] over the chosen field.
betti_table is the one place that sum is evaluated; pd and reg, the pair
the cover bounds are about, are read off its table. Every W, component
and folded piece is a vertex mask of G itself, so the sum walks submasks
of each component mask the leaf split leaves and hands each set to
independence_complex(g, w) without relabeling; one memo, keyed on those
masks, serves a whole betti_table call. Exact shortcuts that do not change
any entry, over any field:

* the sum factors over components: S/I(G + H) is the tensor product of
  S/I(G) and S/I(H) over disjoint sets of variables, so the Betti
  polynomials sum beta_ij s^i t^j of the components multiply, and an
  isolated vertex is a factor of 1;
* a component M with a leaf is split in two (the leaf case of Ha and Van
  Tuyl's splitting formulas, J. Algebraic Combin. 27, 2008). Take l, the
  least vertex of degree 1 in M, its neighbour c and d = |N(c) & M|, and
  write B_X = sum beta_ij s^i t^j for the table of G[X]. Then
      B_M = B_{M - l} + s t^2 (1 + s t)^(d-1) B_{M - N[c]}.
  Sort the subsets W of M three ways. W without l gives the table of
  M - l. W with l but not c leaves l isolated: a cone, nothing. W with l
  and c: every other neighbour of c in W is dominated by l and folds away,
  which leaves the edge lc apart from G[W - N[c]], so Ind(G[W]) is the
  suspension of Ind(G[W - N[c]]); W holds k of the other d - 1
  neighbours of c in C(d-1, k) ways, each shifting (i, j) by
  (1 + k, 2 + k). Both masks are split into components and split
  again; a component with no leaf goes to the subset sum, so a component
  of m vertices visits at most 2^(m-1) + 2^(m-1-d) subsets, not 2^m;
* the subsets of a leafless component M are grouped (Engstrom's fold
  lemma, Discrete Math. 309, 2009): pairs u -> D(u) are picked once, each
  v in D(u) with N(u) & M <= N(v) & M, no u in a D, the D disjoint. With
  u in W, any S <= D(u) & W folds away one vertex at a time, since the
  containment holds in every subset: W and W - S have the same homology,
  |S| steps apart in i and j. So only the R with no D(u) & R for a u in R
  are visited, each times (1 + s t)^e, e the size of the D(u) with u in R;
* each W is folded first: by Engstrom's fold lemma, if N(u) <= N(v) for
  u != v then Ind(G) and Ind(G - v) are homotopy equivalent, so dominated
  vertices are dropped from W until none is left. A vertex of W with no
  neighbour in W stops the fold: the complex is a cone over that vertex,
  so W contributes nothing and no complex is built. Homology is then
  computed once per folded subset, memoized for the duration of one call;
* a folded W whose graph is disconnected is not built as one complex:
  Ind(A + B) is the join Ind(A) * Ind(B), and over a field
  H~_{k+1}(X * Y) is the sum over i + j = k of H~_i(X) (x) H~_j(Y). Each
  piece is memoized on its own; it is fold-stable, since no vertex of a
  piece has a neighbour outside it.

pd_reg_bounds boxes pd and reg without visiting a subset, over every field:

* pd >= tau_max: pd(S/I) is at least bight(I), the largest height of a
  minimal prime, and the minimal primes of I(G) are the minimal vertex
  covers; reg >= the induced matching number (Katzman, J. Combin. Theory
  Ser. A 113, 2006);
* for a non-isolated x the exact sequence
  0 -> S/(I : x)(-1) -> S/I -> S/(I, x) -> 0, with (I : x) = (I(G - N[x]),
  N(x)) and (I, x) = (I(G - x), x), gives
      pd(G) <= max(pd(G - N[x]) + deg x, pd(G - x) + 1),
      reg(G) <= max(reg(G - x), reg(G - N[x]) + 1)
  (Dao, Huneke and Schweig, J. Algebraic Combin. 38, 2013, Lemma 3.1).
  Recursing on both masks gives the upper bounds.

When the bounds meet, the pair is pinned with no homology at all, so the
same over every field. The reg recursion is a bound, not an identity:
reg(G - N[x]) + 1 <= reg(G) fails in general, and the flag RP^2 graph
JhW[X`LtKF? (reg 3 over GF(2), 2 over Q) has the box pd in [8, 9], reg in
[2, 3], which holds both fields' pairs.

dual_regularity gives the cover-ideal side used by dual_check: the same
sum over the complex of non-covers (the Alexander dual of the independence
complex). There only vertex covers W contribute, since a non-cover W
restricts to the full simplex on W, and the complex over a cover W is
generated by the sets W - A for the inclusion-minimal A among the sets
e & W, one per edge e. A vertex of W in no such A lies in every facet, so
the complex is a cone and W is skipped. That test reads the generators
only, and the dual side shares only homology_dims with betti_table, so the
cross-check stays independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import covers
from .errors import ParameterRangeError, ResourceLimitError, resolve_cap
from .graphs import Graph, _bits, _components
from .homology import (GF2, FieldSpec, SimplicialComplex, homology_dims,
                       independence_complex)

DEFAULT_MAX_N = 16


def _betti_cap() -> int:
    """The most vertices a subset sum takes: EDGEIDEALS_MAX_BETTI_N, else
    DEFAULT_MAX_N."""
    return resolve_cap("EDGEIDEALS_MAX_BETTI_N", DEFAULT_MAX_N)


def _check_cap(n: int, what: str) -> None:
    """Raise ResourceLimitError when n vertices are over _betti_cap()."""
    limit = _betti_cap()
    if n > limit:
        raise ResourceLimitError(
            f"{what} refuses n={n} > limit {limit}; set "
            f"EDGEIDEALS_MAX_BETTI_N to override")


@dataclass(frozen=True)
class BettiTable:
    """Sparse graded Betti table of S/I(G) plus the derived invariants."""

    n: int
    characteristic: int
    entries: dict[tuple[int, int], int]
    pd: int
    reg: int

    def entry(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)


@dataclass(frozen=True)
class DualReport:
    """Both sides of the Terai identity, computed independently."""

    reg_dual: int
    pd_primal: int
    tau_max: int

    @property
    def identity_holds(self) -> bool:
        return self.reg_dual == self.pd_primal

    @property
    def dominates_tau(self) -> bool:
        return self.reg_dual >= self.tau_max


def _fold(masks: tuple[int, ...], w_mask: int) -> int | None:
    """W with dominated vertices folded away, or None when Ind(G[W]) is a
    cone over a vertex isolated in W.

    v is dominated by u when N(u) & W <= N(v) & W, that is when v is
    adjacent to every neighbour of u in W. Every v that u dominates stays
    dominated by u once the others are gone, so they are dropped together.
    Dropping a vertex can only let its neighbours dominate more, so only
    they are looked at again.
    """
    w = todo = w_mask
    while todo:
        low = todo & -todo
        todo ^= low
        nu = masks[low.bit_length() - 1] & w
        if not nu:
            return None
        dominated = w ^ low
        while nu and dominated:
            x = nu & -nu
            dominated &= masks[x.bit_length() - 1]
            nu ^= x
        if dominated:
            w ^= dominated
            todo &= w
            while dominated:
                v = dominated & -dominated
                todo |= masks[v.bit_length() - 1] & w
                dominated ^= v
    return w


def _join(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Reduced homology of the join X * Y over a field, from that of X and
    Y: H~_{i+j+1}(X * Y) is the sum of H~_i(X) (x) H~_j(Y)."""
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j + 1] = out.get(i + j + 1, 0) + x * y
    return out


def _ind_homology(g: Graph, w_mask: int, field: FieldSpec,
                  memo: dict[int, dict[int, int]]) -> dict[int, int]:
    """Nonzero reduced homology of Ind(G[W]), memoized in `memo` by the
    folded subset and by each of its connected pieces."""
    w = _fold(g.masks, w_mask)
    if w is None:
        return {}
    hit = memo.get(w)
    if hit is None:
        pieces = _components(g.masks, w)
        if len(pieces) == 1:
            hit = homology_dims(independence_complex(g, w), field)
        else:
            hit = {-1: 1}
            for piece in pieces:
                hit = _join(hit, _ind_homology(g, piece, field, memo))
                if not hit:
                    break
        memo[w] = hit
    return hit


def hochster_summand(g: Graph, vertices, field: FieldSpec = GF2) -> dict[int, int]:
    """The inner Hochster term for one subset: nonzero reduced homology
    dimensions of the independence complex of G[W]. |W| is held to the
    cap of betti_table."""
    w = set(vertices)
    if w and (min(w) < 0 or max(w) >= g.n):
        raise ParameterRangeError(f"subset out of range for n={g.n}")
    _check_cap(len(w), "hochster_summand")
    mask = 0
    for v in w:
        mask |= 1 << v
    return _ind_homology(g, mask, field, {})


def _dominations(masks: tuple[int, ...], comp: int) -> list[tuple[int, int]]:
    """Pairs (u, D(u)) for _subset_sum, u as a one-bit mask: N(u) & comp is
    nonempty and inside N(v) for each v in D(u), no u lies in a D, and the
    D are disjoint. One greedy pass in vertex order."""
    pairs = []
    used = 0
    for v in _bits(comp):
        u = 1 << v
        nu = masks[v] & comp
        dom = comp & ~used & ~u if nu and not used & u else 0
        for x in _bits(nu):
            dom &= masks[x]
        if dom:
            pairs.append((u, dom))
            used |= u | dom
    return pairs


def _subset_sum(g: Graph, comp: int, field: FieldSpec,
                memo: dict[int, dict[int, int]]) -> dict[tuple[int, int], int]:
    """Hochster's sum over the subsets W of the vertex mask comp, in g's own
    labels, visiting only the admissible W of the grouping by the pairs of
    _dominations: W = B | X, B a submask of comp minus D, the union of the
    D(u), and X one of the union F of the D(u) with u not in B, weighted by
    (1 + s t)^e with e = |D| - |F|."""
    pairs = _dominations(g.masks, comp)
    dominated = sum(dom for _, dom in pairs)
    by_e: dict[int, dict[tuple[int, int], int]] = {}
    base = b = comp & ~dominated
    while True:
        free = 0
        for u, dom in pairs:
            if not b & u:
                free |= dom
        e = dominated.bit_count() - free.bit_count()
        entries = by_e.setdefault(e, {})
        x = free
        while True:
            w = b | x
            j = w.bit_count()
            for k, dim in _ind_homology(g, w, field, memo).items():
                key = (j - 1 - k, j)
                entries[key] = entries.get(key, 0) + dim
            if not x:
                break
            x = (x - 1) & free
        if not b:
            break
        b = (b - 1) & base
    total = by_e.pop(0)  # B empty leaves every D(u) free
    for e, entries in by_e.items():
        step = {(k, k): comb(e, k) for k in range(e + 1)}
        for key, y in _tensor(step, entries).items():
            total[key] = total.get(key, 0) + y
    return total


def _tensor(a: dict[tuple[int, int], int],
            b: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """Betti table of a tensor product over disjoint variables: the product
    of the Betti polynomials sum beta_ij s^i t^j."""
    out: dict[tuple[int, int], int] = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + x * y
    return out


def _least_leaf(masks: tuple[int, ...], comp: int) -> int:
    """The least vertex of degree 1 in G[comp], as a one-bit mask, or 0."""
    m = comp
    while m:
        low = m & -m
        nb = masks[low.bit_length() - 1] & comp
        if nb and not nb & (nb - 1):
            return low
        m ^= low
    return 0


def _table(g: Graph, mask: int, field: FieldSpec,
           memo: dict[int, dict[int, int]]) -> dict[tuple[int, int], int]:
    """Betti table of G[mask]: the product of the tables of its components,
    an isolated vertex being a factor of 1."""
    entries = {(0, 0): 1}
    for comp in _components(g.masks, mask):
        if comp & (comp - 1):
            entries = _tensor(entries, _component_table(g, comp, field, memo))
    return entries


def _component_table(g: Graph, comp: int, field: FieldSpec,
                     memo: dict[int, dict[int, int]]
                     ) -> dict[tuple[int, int], int]:
    """Betti table of G[comp] for a connected vertex mask comp, by the leaf
    split: while comp has a leaf l, with neighbour c of degree d in comp,
    B_comp = B_{comp - l} + s t^2 (1 + s t)^(d-1) B_{comp - N[c]}. Removing
    a leaf keeps comp connected, so the first term is split again in turn;
    once no leaf is left, the subset sum gives it."""
    masks = g.masks
    parts = []
    while leaf := _least_leaf(masks, comp):
        c = masks[leaf.bit_length() - 1] & comp
        near = masks[c.bit_length() - 1] & comp
        d = near.bit_count()
        step = {(1 + k, 2 + k): comb(d - 1, k) for k in range(d)}
        parts.append(_tensor(step, _table(g, comp & ~near & ~c, field, memo)))
        comp ^= leaf
    entries = _subset_sum(g, comp, field, memo)
    for part in parts:
        for key, x in part.items():
            entries[key] = entries.get(key, 0) + x
    return entries


def betti_table(g: Graph, field: FieldSpec = GF2) -> BettiTable:
    _check_cap(g.n, "betti_table")
    entries = _table(g, (1 << g.n) - 1, field, {})
    pd = max(i for i, _ in entries)
    reg = max(j - i for i, j in entries)
    return BettiTable(n=g.n, characteristic=field.characteristic,
                      entries=entries, pd=pd, reg=reg)


def pd_and_reg(g: Graph, field: FieldSpec = GF2) -> tuple[int, int]:
    """(projective dimension, regularity) of S/I(G), read off betti_table:
    there is one subset sum, and pd and reg are the largest i and j - i
    among its nonzero entries."""
    t = betti_table(g, field)
    return t.pd, t.reg


def pd_reg_bounds(g: Graph) -> tuple[int, int, int, int]:
    """(pd_lo, pd_hi, reg_lo, reg_hi): exact bounds on pd and reg of S/I(G)
    over every field, with no subset visited (see the module docstring).

    The lower bounds are tau_max and the induced matching number. The upper
    bounds recurse on vertex masks of g, one memo per call: isolated
    vertices are dropped, an edgeless mask gives (0, 0), and otherwise the
    least vertex x of largest degree is the pivot, with
    pd <= max(pd(G - N[x]) + deg x, pd(G - x) + 1) and
    reg <= max(reg(G - x), reg(G - N[x]) + 1). The cap is betti_table's,
    set by EDGEIDEALS_MAX_BETTI_N."""
    _check_cap(g.n, "pd_reg_bounds")
    masks = g.masks
    memo: dict[int, tuple[int, int]] = {}

    def upper(w: int) -> tuple[int, int]:
        live = 0
        deg = 0
        m = w
        while m:
            low = m & -m
            d = (masks[low.bit_length() - 1] & w).bit_count()
            if d:
                live |= low
                if d > deg:
                    deg, x = d, low
            m ^= low
        if not live:
            return 0, 0
        hit = memo.get(live)
        if hit is None:
            pd_del, reg_del = upper(live ^ x)
            pd_link, reg_link = upper(live & ~x & ~masks[x.bit_length() - 1])
            hit = memo[live] = (max(pd_link + deg, pd_del + 1),
                                max(reg_del, reg_link + 1))
        return hit

    pd_hi, reg_hi = upper((1 << g.n) - 1)
    return (covers.tau_max(g), pd_hi,
            covers.induced_matching_number(g), reg_hi)


def proj_dim(g: Graph, field: FieldSpec = GF2) -> int:
    return pd_and_reg(g, field)[0]


def regularity(g: Graph, field: FieldSpec = GF2) -> int:
    return pd_and_reg(g, field)[1]


def dual_regularity(g: Graph, field: FieldSpec = GF2) -> int:
    """Castelnuovo-Mumford regularity of the cover ideal (the Alexander
    dual of the edge ideal), via the subset-homology sum run on the complex
    of non-covers restricted to each W. Returns reg of the ideal, i.e. reg
    of the quotient plus one.

    Only vertex covers W are visited. If W misses an edge, so does every
    subset of W, so the restriction is the full simplex on W: no reduced
    homology for W nonempty, and for W empty only H~_{-1}, which gives
    reg 0, the start value. Over a cover W the faces are the subsets of W
    that miss some edge e, so the sets W - e generate the complex, and the
    inclusion-minimal sets e & W already give its facets. A vertex of W in
    none of them lies in every facet: the complex is a cone, with no
    reduced homology.
    """
    _check_cap(g.n, "dual_regularity")
    if isolated := [v for v in range(g.n) if not g.masks[v]]:
        raise ParameterRangeError(
            f"dual side needs an isolate-free graph; isolated: {isolated}")
    if g.n == 0:
        raise ParameterRangeError("dual side needs at least one edge")
    edge_masks = [(1 << u) | (1 << v) for u, v in g.edges]
    reg_quotient = 0
    for w_mask in range(1 << g.n):
        if not all(em & w_mask for em in edge_masks):
            continue
        # each e & W is one vertex or a whole edge; an edge is minimal
        # unless one of its ends is such a vertex
        cuts = {em & w_mask for em in edge_masks}
        singles = 0
        for a in cuts:
            if not a & (a - 1):
                singles |= a
        minimal = [a for a in cuts if not a & (a - 1) or not a & singles]
        covered = 0
        for a in minimal:
            covered |= a
        if covered != w_mask:
            continue
        cx = SimplicialComplex.from_facets(w_mask & ~a for a in minimal)
        for k in homology_dims(cx, field):
            reg_quotient = max(reg_quotient, k + 1)
    return reg_quotient + 1


def dual_check(g: Graph, field: FieldSpec = GF2) -> DualReport:
    """Compute reg of the cover ideal and pd of the edge-ideal quotient
    independently and report them side by side (Terai's identity says they
    agree, and both dominate the maximum minimal cover size)."""
    return DualReport(
        reg_dual=dual_regularity(g, field),
        pd_primal=pd_and_reg(g, field)[0],
        tau_max=covers.tau_max(g),
    )


def field_disagreements(g: Graph, characteristics=(2, 3, 0)) -> list[dict]:
    """Compare Betti tables across coefficient fields; one record per
    characteristic whose table differs from the first one. Empty means the
    invariants are characteristic-independent for this graph."""
    base_char = characteristics[0]
    base = betti_table(g, FieldSpec(base_char))
    out = []
    for c in characteristics[1:]:
        other = betti_table(g, FieldSpec(c))
        if other.entries != base.entries:
            out.append({"characteristic": c, "against": base_char,
                        "entries": other.entries, "base": base.entries})
    return out


def render_betti_ascii(table: BettiTable) -> str:
    """Betti-table layout: column i, row j - i; zero entries shown as '.'"""
    cols = range(table.pd + 1)
    rows = range(table.reg + 1)
    cells = [[""] + [str(i) for i in cols]]
    for r in rows:
        cells.append([f"{r}:"] + [
            str(table.entry(i, i + r)) if table.entry(i, i + r) else "."
            for i in cols])
    widths = [max(len(row[c]) for row in cells) for c in range(len(cells[0]))]
    lines = [" ".join(cell.rjust(w) for cell, w in zip(row, widths))
             for row in cells]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines)


def betti_json_dict(table: BettiTable) -> dict:
    """External JSON schema: entries sorted by (i, j)."""
    return {
        "n": table.n,
        "char": table.characteristic,
        "entries": [{"i": i, "j": j, "beta": table.entries[i, j]}
                    for i, j in sorted(table.entries)],
        "pd": table.pd,
        "reg": table.reg,
    }
