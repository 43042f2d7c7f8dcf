"""Graded Betti tables of edge-ideal quotients via subset-wise homology.

For a graph G on n vertices the table entry in homological degree i and
internal degree j is the sum, over all j-subsets W of the vertices, of
dim H~_{j-i-1} of the independence complex of G[W] over the chosen field.
betti_table is the one place that sum is evaluated; pd and reg, the pair
the cover bounds are about, come from the box of pd_reg_bounds when it is
a point, decided in the lazy order below, and are read off betti_table's
table otherwise. Every component is a vertex mask of G itself, and the
few complexes the sum builds are independence_complex(g, w), w the mask
of W in G's labels, with no relabeling. Exact shortcuts that do not
change any entry, over any field:

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
  and c: every other neighbour v of c in W has N(l) & W <= N(v) & W, so
  it folds away (Engstrom's fold lemma, Discrete Math. 309, 2009), which
  leaves the edge lc apart from G[W - N[c]], so Ind(G[W]) is the
  suspension of Ind(G[W - N[c]]); W holds k of the other d - 1
  neighbours of c in C(d-1, k) ways, each shifting (i, j) by
  (1 + k, 2 + k). Both masks are split into components and split
  again; a component with no leaf goes to the subset table;
* a leafless component M of m vertices gets one table hs of the nonzero
  reduced homology of Ind(G[W]) for each of its 2^m subsets W, each entry
  read off two smaller ones by a split at a vertex (Adamaszek, J. Combin.
  Theory Ser. A 119, 2012). Take any x in W. In X = Ind(G[W]) the faces
  without x form D = Ind(G[W - x]), those with x the cone x * L over
  L = Ind(G[W - N[x]]), and D and the cone meet in L. The cone is
  acyclic, so the reduced Mayer-Vietoris sequence reads
      .. -> H~_k(L) -> H~_k(D) -> H~_k(X) -> H~_{k-1}(L) -> H~_{k-1}(D) -> ..
  When no k has both H~_k(L) and H~_k(D) nonzero, every map H~_k(L) ->
  H~_k(D) is zero, the sequence breaks into short exact pieces
  0 -> H~_k(D) -> H~_k(X) -> H~_{k-1}(L) -> 0, and over a field
  dim H~_k(X) = dim H~_k(D) + dim H~_{k-1}(L). When some k has both, that
  map may have any rank and the dimensions do not fix H~(X), so another
  x is tried; only when every x of W shares a degree is X built and its
  homology computed. An x with no neighbour in W makes X the cone x * D,
  with no reduced homology. The vertices of M are numbered by ascending
  degree in M, ties by label, and W runs over the local masks in
  ascending order, so W - x and W - N[x], proper submasks, are filled
  before W. The x are tried from W's top vertex down: first one of
  largest degree in M, whose link W - N[x] is the smallest. hs holds 2^m
  entries, the empty subset's being {-1: 1} and every cone's one shared
  empty value, and each nonzero entry of W adds dim H~_k to
  beta_{|W|-1-k, |W|}.

pd_reg_bounds boxes pd and reg without visiting a subset, over every field:

* reg = 1 in closed form: for G with an edge, reg(S/I(G)) = 1 exactly
  when the complement G' of G is chordal, over every field (Froberg,
  Banach Center Publ. 26, 1990). Then every nonzero beta_ij has
  j - i = 1, so only H~_0 of Ind(G[W]), the clique complex of G'[W], is
  left in the sum, and it is nonzero exactly when G'[W] is disconnected:
      pd = max{|W| - 1 : G'[W] disconnected} = n - 1 - kappa(G'),
  kappa the vertex connectivity, as G'[W] is disconnected exactly when
  the other n - |W| vertices form a vertex cut of G'. A least vertex cut
  is a minimal separator, and the minimal separators of a chordal graph
  are read off a maximum cardinality search (Blair and Peyton, IMA Vol.
  Math. Appl. 56, 1993), so one search on the masks of G' tests
  chordality and gives kappa. Every other G with an edge has reg >= 2;
* pd >= tau_max: pd(S/I) is at least bight(I), the largest height of a
  minimal prime, and the minimal primes of I(G) are the minimal vertex
  covers; reg >= the induced matching number nu (Katzman, J. Combin.
  Theory Ser. A 113, 2006);
* for a non-isolated x the exact sequence
  0 -> S/(I : x)(-1) -> S/I -> S/(I, x) -> 0, with (I : x) = (I(G - N[x]),
  N(x)) and (I, x) = (I(G - x), x), gives
      pd(G) <= max(pd(G - N[x]) + deg x, pd(G - x) + 1),
      reg(G) <= max(reg(G - x), reg(G - N[x]) + 1)
  (Dao, Huneke and Schweig, J. Algebraic Combin. 38, 2013, Lemma 3.1).
  Recursing on both masks gives the upper bounds.

When the complement is chordal or the bounds meet, the pair is pinned
with no homology at all, so the same over every field. The reg recursion
is a bound, not an identity: reg(G - N[x]) + 1 <= reg(G) fails in
general, and the flag RP^2 graph JhW[X`LtKF? (reg 3 over GF(2), 2 over
Q) has the box pd in [8, 9], reg in [2, 3], which holds both fields'
pairs.

pd_and_reg only asks whether the box is a point, and answers it lazily,
each lower bound computed only when the answer still depends on it:

1. an edgeless G gives (0, 0), and a chordal complement the closed form
   (n - 1 - kappa, 1);
2. otherwise the recursion gives (pd_hi, reg_hi);
3. reg: if reg_hi = 2, reg is pinned with no nu. Otherwise nu is
   computed, and if nu < reg_hi the pair goes to the sum with no pd check;
4. pd: for S the greedy maximal independent set of
   covers._greedy_independent, if n - |S| = pd_hi, pd is pinned with no
   tau_max. Otherwise tau_max is computed, and if tau_max < pd_hi the
   pair goes to the sum.

Proof that the verdict and the pair are the box's: V - S is a minimal
cover, so n - |S| <= tau_max <= pd <= pd_hi, and
max(2, nu) <= reg <= reg_hi, reg >= 2 by Froberg as step 1 leaves only
graphs with an edge and a complement that is not chordal. The box is a point exactly when
tau_max = pd_hi and max(2, nu) = reg_hi. If reg_hi = 2 the second
equality holds whatever nu is, as 2 <= max(2, nu) <= reg_hi; if
reg_hi > 2 it holds exactly when nu = reg_hi. If n - |S| = pd_hi the
first is squeezed to hold whatever tau_max is; otherwise tau_max decides
it. On a point the pair is (pd_hi, reg_hi).

dual_regularity gives the cover-ideal side used by dual_check: the largest
k + 1 with H~_k nonzero over the complexes K_W of non-covers restricted
to each W (the non-cover complex is the Alexander dual of the independence
complex). Only vertex covers W = V - I, I independent, contribute, since a
non-cover W restricts to the full simplex on W. K_W is generated by
W - v for v in N(I) and W - e for the edges e of G - N[I]; it is a cone,
and W is skipped, when G - N[I] has an isolated vertex. Its dimension is
|W| - 2 for I nonempty and n - 3 for I empty, so the independent sets are
grown one size at a time, the covers come in descending dimension (I
empty after the sets of size one, its equals), and the search stops once
dim K_W + 1 is no more than the best k + 1 found.
Each cover's complex is built from the top down, one degree at a time, to
its first nonzero degree at or above the best, and no lower. The best
starts at 0 and only ever takes a degree where a rank computation found
nonzero homology, never a bound from the primal side; the dual side
shares only the boundary-rank kernels with betti_table, so the
cross-check stays independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import covers
from .errors import ParameterRangeError, ResourceLimitError, resolve_cap
from .graphs import Graph, _bits, _chordal_separator, _components, _pivot
from .homology import (GF2, FieldSpec, homology_dims, independence_complex,
                       top_homology_degree)

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


def _homology_table(g: Graph, w: int, field: FieldSpec
                    ) -> list[dict[int, int]]:
    """hs[s] for each subset W of the vertex mask w: the nonzero reduced
    homology of Ind(G[W]), s the local mask of W, with bit i for the i-th
    vertex of w by ascending degree in G[w], ties by label (see the module
    docstring). Entries are shared, so none may be changed."""
    masks = g.masks
    verts = sorted(_bits(w), key=lambda v: ((masks[v] & w).bit_count(), v))
    nbrs = [sum(1 << i for i, u in enumerate(verts) if masks[v] >> u & 1)
            for v in verts]
    hs: list[dict[int, int]] = [{}] * (1 << len(verts))
    hs[0] = {-1: 1}
    for s in range(1, len(hs)):
        rest = s
        while rest:
            y = rest.bit_length() - 1
            nb = nbrs[y] & s
            if not nb:
                break  # a cone
            bit = 1 << y
            dele, link = hs[s ^ bit], hs[s & ~nb ^ bit]
            if not link:
                hs[s] = dele
                break
            if link.keys().isdisjoint(dele):
                out = dict(dele)
                for k, dim in link.items():
                    out[k + 1] = out.get(k + 1, 0) + dim
                hs[s] = out
                break
            rest ^= bit
        else:
            hs[s] = homology_dims(independence_complex(
                g, sum(1 << v for i, v in enumerate(verts) if s >> i & 1)),
                field)
    return hs


def _subset_sum(g: Graph, comp: int, field: FieldSpec
                ) -> dict[tuple[int, int], int]:
    """Hochster's sum over the subsets W of the vertex mask comp, read off
    the subset table of _homology_table."""
    entries: dict[tuple[int, int], int] = {}
    for s, h in enumerate(_homology_table(g, comp, field)):
        if h:
            j = s.bit_count()
            for k, dim in h.items():
                key = (j - 1 - k, j)
                entries[key] = entries.get(key, 0) + dim
    return entries


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


def _table(g: Graph, mask: int, field: FieldSpec
           ) -> dict[tuple[int, int], int]:
    """Betti table of G[mask]: the product of the tables of its components,
    an isolated vertex being a factor of 1."""
    entries = {(0, 0): 1}
    for comp in _components(g.masks, mask):
        if comp & (comp - 1):
            entries = _tensor(entries, _component_table(g, comp, field))
    return entries


def _component_table(g: Graph, comp: int, field: FieldSpec
                     ) -> dict[tuple[int, int], int]:
    """Betti table of G[comp] for a connected vertex mask comp, by the leaf
    split: while comp has a leaf l, with neighbour c of degree d in comp,
    B_comp = B_{comp - l} + s t^2 (1 + s t)^(d-1) B_{comp - N[c]}. Removing
    a leaf keeps comp connected, so the first term is split again in turn;
    once no leaf is left, the subset table gives it."""
    masks = g.masks
    parts = []
    while leaf := _least_leaf(masks, comp):
        c = masks[leaf.bit_length() - 1] & comp
        near = masks[c.bit_length() - 1] & comp
        d = near.bit_count()
        step = {(1 + k, 2 + k): comb(d - 1, k) for k in range(d)}
        parts.append(_tensor(step, _table(g, comp & ~near & ~c, field)))
        comp ^= leaf
    entries = _subset_sum(g, comp, field)
    for part in parts:
        for key, x in part.items():
            entries[key] = entries.get(key, 0) + x
    return entries


def betti_table(g: Graph, field: FieldSpec = GF2) -> BettiTable:
    _check_cap(g.n, "betti_table")
    entries = _table(g, (1 << g.n) - 1, field)
    pd = max(i for i, _ in entries)
    reg = max(j - i for i, j in entries)
    return BettiTable(n=g.n, characteristic=field.characteristic,
                      entries=entries, pd=pd, reg=reg)


def _certified_pd_and_reg(g: Graph, field: FieldSpec
                          ) -> tuple[tuple[int, int], bool]:
    """((pd, reg), summed): the point of pd_reg_bounds' box when it is one,
    the same over every field, and else the pair of betti_table over
    field; summed says whether the subset sum ran. Whether the box is a
    point is decided in the lazy order of the module docstring: a lower
    bound is computed only while the verdict still depends on it."""
    _check_cap(g.n, "pd_and_reg")
    pair = _closed_form(g)
    if pair is not None:
        return pair, False
    pd_hi, reg_hi = _upper_bounds(g)
    if ((reg_hi == 2 or covers.induced_matching_number(g) == reg_hi)
            and (g.n - covers._greedy_independent(g.masks).bit_count() == pd_hi
                 or covers.tau_max(g) == pd_hi)):
        return (pd_hi, reg_hi), False
    t = betti_table(g, field)
    return (t.pd, t.reg), True


def pd_and_reg(g: Graph, field: FieldSpec = GF2) -> tuple[int, int]:
    """(projective dimension, regularity) of S/I(G): the point of
    pd_reg_bounds' box when it is one, found with no subset visited and
    no lower bound computed that the verdict does not need, and else the
    largest i and j - i among the nonzero entries of betti_table."""
    return _certified_pd_and_reg(g, field)[0]


def _closed_form(g: Graph) -> tuple[int, int] | None:
    """(pd, reg) with no bound: (0, 0) for an edgeless g, (n - 1 - kappa, 1)
    when the complement of g is chordal (one maximum cardinality search on
    its masks), kappa the size of a least minimal separator of the
    complement, and None otherwise."""
    masks = g.masks
    if not any(masks):
        return 0, 0
    full = (1 << g.n) - 1
    kappa = _chordal_separator([full ^ m ^ (1 << v)
                                for v, m in enumerate(masks)])
    return None if kappa is None else (g.n - 1 - kappa, 1)


def _upper_bounds(g: Graph) -> tuple[int, int]:
    """(pd_hi, reg_hi) by the pivot recursion on vertex masks of g, one memo
    per call: isolated vertices are dropped, an edgeless mask gives (0, 0),
    and otherwise the least vertex x of largest degree is the pivot, with
    pd <= max(pd(G - N[x]) + deg x, pd(G - x) + 1) and
    reg <= max(reg(G - x), reg(G - N[x]) + 1)."""
    masks = g.masks
    memo: dict[int, tuple[int, int]] = {}

    def upper(w: int) -> tuple[int, int]:
        live, x, deg = _pivot(masks, w)
        if not live:
            return 0, 0
        hit = memo.get(live)
        if hit is None:
            pd_del, reg_del = upper(live ^ x)
            pd_link, reg_link = upper(live & ~x & ~masks[x.bit_length() - 1])
            hit = memo[live] = (max(pd_link + deg, pd_del + 1),
                                max(reg_del, reg_link + 1))
        return hit

    return upper((1 << g.n) - 1)


def pd_reg_bounds(g: Graph) -> tuple[int, int, int, int]:
    """(pd_lo, pd_hi, reg_lo, reg_hi): exact bounds on pd and reg of S/I(G)
    over every field, with no subset visited (see the module docstring).

    The pair of _closed_form, when there is one, is the point box.
    Otherwise reg >= 2 (Froberg), the lower bounds are tau_max and the
    larger of 2 and the induced matching number, and the upper bounds are
    those of _upper_bounds. The cap is betti_table's, set by
    EDGEIDEALS_MAX_BETTI_N."""
    _check_cap(g.n, "pd_reg_bounds")
    pair = _closed_form(g)
    if pair is not None:
        return pair[0], pair[0], pair[1], pair[1]
    pd_hi, reg_hi = _upper_bounds(g)
    return (covers.tau_max(g), pd_hi,
            max(2, covers.induced_matching_number(g)), reg_hi)


def dual_regularity(g: Graph, field: FieldSpec = GF2) -> int:
    """Castelnuovo-Mumford regularity of the cover ideal (the Alexander
    dual of the edge ideal), via the subset-homology sum run on the complex
    K_W of non-covers restricted to each W. Returns reg of the ideal, i.e.
    reg of the quotient plus one.

    reg of the quotient is the largest k + 1 with H~_k(K_W) nonzero for
    some W, and 0 when there is none. Only vertex covers W count: if W
    misses an edge, so does every subset of W, so K_W is the full simplex
    on W, with no reduced homology for W nonempty and only H~_{-1}, worth
    0, for W empty. The covers are the complements W = V - I of the
    independent sets I. Over a cover the faces are the subsets of W that
    miss some edge e, so K_W is generated by the sets W - (e & W); the
    inclusion-minimal ones are W - v for v in N(I) and W - e for the edges
    e of G - N[I]. A vertex of W in none of those lies in every facet, so
    K_W is a cone, with no reduced homology, and W is skipped: exactly when
    G - N[I] has an isolated vertex.

    As g has no isolated vertex, a nonempty I has a neighbour v in W, and
    W - v is a face: dim K_W = |W| - 2 = n - |I| - 2. For I empty every
    facet is V - e, and dim K_W = n - 3. The independent sets are grown
    one size at a time, so the covers come in descending dim; I empty ties
    with the sets of size one and comes after them, as its complex is the
    largest. The search stops at the first size where dim + 1 is no more
    than the best k + 1 found: no cover left can beat it. Each cover asks
    top_homology_degree for its largest nonzero degree k >= best, which
    builds faces from the top down and stops there. So every value found
    is a nonzero H~_k of some K_W, never a bound, and the search calls
    nothing of the primal engine.
    """
    _check_cap(g.n, "dual_regularity")
    masks = g.masks
    if isolated := [v for v in range(g.n) if not masks[v]]:
        raise ParameterRangeError(
            f"dual side needs an isolate-free graph; isolated: {isolated}")
    if g.n == 0:
        raise ParameterRangeError("dual side needs at least one edge")
    full = (1 << g.n) - 1
    edge_masks = [(1 << u) | (1 << v) for u, v in g.edges]
    best = 0
    # independent sets I of one size, each with N(I) and the vertices that
    # can extend it: above its largest vertex and not in N(I)
    level = [(0, 0, full)]
    for size in range(1, g.n + 1):
        if g.n - size - 1 <= best:  # dim K_W + 1 <= best for every W left
            break
        grown = []
        for ind, near, free in level:
            while free:
                low = free & -free
                free ^= low
                nb = masks[low.bit_length() - 1]
                grown.append((ind | low, near | nb, free & ~nb))
        level = grown
        # I empty ties with size 1 at dim n - 3, and its complex is the
        # largest, so it comes after them
        for ind, near, _ in grown + [(0, 0, 0)] if size == 1 else grown:
            w = full & ~ind
            rest = w & ~near
            inner = [em for em in edge_masks if em & rest == em]
            covered = near
            for em in inner:
                covered |= em
            if covered == w:
                k = top_homology_degree(
                    [w ^ (1 << v) for v in _bits(near)]
                    + [w & ~em for em in inner], best, field)
                if k is not None:
                    best = k + 1
    return best + 1


def dual_check(g: Graph, field: FieldSpec = GF2) -> DualReport:
    """Compute reg of the cover ideal and pd of the edge-ideal quotient
    independently and report them side by side (Terai's identity says they
    agree, and both dominate the maximum minimal cover size)."""
    return DualReport(
        reg_dual=dual_regularity(g, field),
        pd_primal=betti_table(g, field).pd,
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
