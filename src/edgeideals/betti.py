"""Graded Betti tables of edge-ideal quotients via subset-wise homology.

For a graph G on n vertices the table entry in homological degree i and
internal degree j is the sum, over all j-subsets W of the vertices, of
dim H~_{j-i-1} of the independence complex of G[W] over the chosen field.
The sum is evaluated over all 2^n induced subgraphs with two exact
shortcuts that do not change any entry:

* subsets whose induced subgraph has an isolated vertex contribute nothing
  (the complex is a cone over that vertex), and
* each remaining W is folded first: by Engstrom's fold lemma, if
  N(u) <= N(v) for u != v then Ind(G) and Ind(G - v) are homotopy
  equivalent, so dominated vertices are dropped from W until none is left
  (or an isolated vertex shows a cone). Homology is then computed once per
  folded subset, memoized for the duration of one call.

The same engine run on the complex of non-covers (the Alexander dual of
the independence complex) gives the cover-ideal side used by dual_check;
that side is left unfolded so the cross-check stays independent.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import covers
from .errors import ParameterRangeError, ResourceLimitError, resolve_cap
from .graphs import Graph, induced_subgraph
from .homology import (GF2, FieldSpec, SimplicialComplex, homology_dims,
                       independence_complex)

DEFAULT_MAX_N = 16


def _resolve_max_n(max_n: int | None) -> int:
    return resolve_cap(max_n, "EDGEIDEALS_MAX_BETTI_N", DEFAULT_MAX_N)


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


def _subset_members(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _has_isolated(g: Graph, w_mask: int) -> bool:
    masks = g.masks
    m = w_mask
    while m:
        low = m & -m
        if not masks[low.bit_length() - 1] & w_mask:
            return True
        m ^= low
    return False


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


def _ind_homology(g: Graph, w_mask: int, field: FieldSpec,
                  memo: dict[int, dict[int, int]]) -> dict[int, int]:
    """Nonzero reduced homology of Ind(G[W]), memoized in `memo` by the
    folded subset."""
    w = _fold(g.masks, w_mask)
    if w is None:
        return {}
    hit = memo.get(w)
    if hit is None:
        sub = induced_subgraph(g, _subset_members(w))
        hit = memo[w] = homology_dims(independence_complex(sub), field)
    return hit


def hochster_summand(g: Graph, vertices, field: FieldSpec = GF2) -> dict[int, int]:
    """The inner Hochster term for one subset: nonzero reduced homology
    dimensions of the independence complex of G[W]."""
    w = set(vertices)
    if w and (min(w) < 0 or max(w) >= g.n):
        raise ParameterRangeError(f"subset out of range for n={g.n}")
    mask = 0
    for v in w:
        mask |= 1 << v
    return _ind_homology(g, mask, field, {})


def betti_table(g: Graph, field: FieldSpec = GF2,
                max_n: int | None = None) -> BettiTable:
    limit = _resolve_max_n(max_n)
    if g.n > limit:
        raise ResourceLimitError(
            f"betti_table refuses n={g.n} > limit {limit}; raise max_n or "
            f"set EDGEIDEALS_MAX_BETTI_N to override")
    entries: dict[tuple[int, int], int] = {}
    memo: dict[int, dict[int, int]] = {}
    for w_mask in range(1 << g.n):
        if w_mask and _has_isolated(g, w_mask):
            continue
        j = w_mask.bit_count()
        for k, dim in _ind_homology(g, w_mask, field, memo).items():
            key = (j - 1 - k, j)
            entries[key] = entries.get(key, 0) + dim
    pd = max(i for i, _ in entries)
    reg = max(j - i for i, j in entries)
    return BettiTable(n=g.n, characteristic=field.characteristic,
                      entries=entries, pd=pd, reg=reg)


def pd_and_reg(g: Graph, field: FieldSpec = GF2,
               max_n: int | None = None) -> tuple[int, int]:
    """(projective dimension, regularity) by the same subset sum, skipping
    subsets that provably cannot move either running maximum.

    A subset of size j contributes i <= j - 1 and j - i <= j, so once both
    bounds fall at or below the running maxima the subset is skipped; the
    result is identical to betti_table's pd and reg.
    """
    limit = _resolve_max_n(max_n)
    if g.n > limit:
        raise ResourceLimitError(
            f"pd/reg refuses n={g.n} > limit {limit}; raise max_n or set "
            f"EDGEIDEALS_MAX_BETTI_N to override")
    best_pd = 0
    best_reg = 0
    memo: dict[int, dict[int, int]] = {}
    order = sorted(range(1 << g.n), key=lambda m: m.bit_count())
    for w_mask in order:
        j = w_mask.bit_count()
        if j - 1 <= best_pd and j <= best_reg:
            continue
        if w_mask and _has_isolated(g, w_mask):
            continue
        for k, dim in _ind_homology(g, w_mask, field, memo).items():
            if not dim:
                continue
            i = j - 1 - k
            if i > best_pd:
                best_pd = i
            if j - i > best_reg:
                best_reg = j - i
    return best_pd, best_reg


def proj_dim(g: Graph, field: FieldSpec = GF2, max_n: int | None = None) -> int:
    return pd_and_reg(g, field, max_n)[0]


def regularity(g: Graph, field: FieldSpec = GF2, max_n: int | None = None) -> int:
    return pd_and_reg(g, field, max_n)[1]


def _noncover_complex(g: Graph, w_mask: int) -> SimplicialComplex:
    """Faces are the subsets of W that fail to cover some edge of g (the
    restriction to W of the Alexander dual of the independence complex).
    Supersets of covers are covers, so the backtracking prunes there."""
    edge_masks = [(1 << u) | (1 << v) for u, v in g.edges]
    members = _subset_members(w_mask)
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    if edge_masks:
        by_dim[-1] = [()]
    current: list[int] = []

    def is_noncover(mask: int) -> bool:
        return any(not em & mask for em in edge_masks)

    def extend(start: int, mask: int):
        for idx in range(start, len(members)):
            v = members[idx]
            m2 = mask | 1 << v
            if not is_noncover(m2):
                continue
            current.append(v)
            by_dim.setdefault(len(current) - 1, []).append(tuple(current))
            extend(idx + 1, m2)
            current.pop()

    if edge_masks:
        extend(0, 0)
    return SimplicialComplex(by_dim)


def dual_regularity(g: Graph, field: FieldSpec = GF2,
                    max_n: int | None = None) -> int:
    """Castelnuovo-Mumford regularity of the cover ideal (the Alexander
    dual of the edge ideal), via the same subset-homology sum run on the
    non-cover complex. Returns reg of the ideal, i.e. reg of the quotient
    plus one."""
    limit = _resolve_max_n(max_n)
    if g.n > limit:
        raise ResourceLimitError(
            f"dual_regularity refuses n={g.n} > limit {limit}")
    if isolated := [v for v in range(g.n) if not g.masks[v]]:
        raise ParameterRangeError(
            f"dual side needs an isolate-free graph; isolated: {isolated}")
    if g.n == 0:
        raise ParameterRangeError("dual side needs at least one edge")
    reg_quotient = 0
    for w_mask in range(1 << g.n):
        j = w_mask.bit_count()
        for k, dim in homology_dims(_noncover_complex(g, w_mask), field).items():
            if dim and (k + 1) > reg_quotient:
                reg_quotient = k + 1
    return reg_quotient + 1


def dual_check(g: Graph, field: FieldSpec = GF2,
               max_n: int | None = None) -> DualReport:
    """Compute reg of the cover ideal and pd of the edge-ideal quotient
    independently and report them side by side (Terai's identity says they
    agree, and both dominate the maximum minimal cover size)."""
    return DualReport(
        reg_dual=dual_regularity(g, field, max_n),
        pd_primal=pd_and_reg(g, field, max_n)[0],
        tau_max=covers.tau_max(g),
    )


def field_disagreements(g: Graph, characteristics=(2, 3, 0),
                        max_n: int | None = None) -> list[dict]:
    """Compare Betti tables across coefficient fields; one record per
    characteristic whose table differs from the first one. Empty means the
    invariants are characteristic-independent for this graph."""
    base_char = characteristics[0]
    base = betti_table(g, FieldSpec(base_char), max_n)
    out = []
    for c in characteristics[1:]:
        other = betti_table(g, FieldSpec(c), max_n)
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
