"""Canonical forms, isomorph-free enumeration, random graphs, family
recognition, and the theorem-verification harnesses.

The canonical form of a graph is the least leaf of its
individualization-refinement search tree: a depth-first search over
equitable ordered partitions that treats cells of mutual twins as discrete
and skips a target-cell vertex when an automorphism found so far, fixing
the vertices already individualized, maps it onto a tried one. Each leaf
orders the vertices; its value is the upper-triangular adjacency bitstring
in that order, read in graph6 column-major order (bit for (0,1) most
significant). Every leaf's bitstring is built in full and compared; there
is no prefix pruning. No third-party canonical-labeling tool is involved.

The form is a complete invariant: refinement commutes with relabeling, so
a relabeled graph has the relabeled search tree and the same leaf values.
It is not the minimum over all n! relabelings, which it misses on 2 of the
34 classes at n = 5 (K3 + K2 among them), 32 of 156 at n = 6 and 477 of
1,044 at n = 7, and it depends on the cell order _refine produces: a change
there changes the forms, and with them the witnesses pdr_spectrum reports.

The isomorph-free atlas grows each level from the one below by adding a
vertex, trying one attachment set per automorphism orbit of the parent.
A child that has a one-vertex deletion whose invariants only parents
earlier in the level have is dropped with no canonical form: its class was
met under that earlier parent (the deletion test). Its tables are built
once per parent, so each child costs a few adds per old vertex. A child
it keeps gets a class key, a hash of the sorted (degree, triangles,
neighbour-degree sum) rows of its vertices, computed from the parent's
rows; a new key is a new class. A child whose key was met before goes
through the deletion test once more with the finer key, the class keys of
its deletions read off its own rows, and only a child that survives it
gets a canonical form. Every step is proved in _atlas_level: every level,
its order and every representative are those of deduplicating every child
by canonical form.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

from . import betti, covers, gio, spectrum
from .errors import ParameterRangeError, ResourceLimitError, resolve_cap
from .graphs import (Graph, _bits, is_chordal, is_gap_free, isolated_vertices,
                     is_connected)
from .homology import GF2, FieldSpec

CANONICAL_MAX_N = 12
ENUMERATE_MAX_N = 9

# Published counts of unlabeled simple graphs on n = 0..9 vertices.
UNLABELED_GRAPH_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668)


@dataclass(frozen=True)
class CanonicalForm:
    """Relabeling-invariant fingerprint: equal forms <=> isomorphic graphs.

    `bits` packs the upper-triangular adjacency of the canonically labeled
    graph in graph6 reading order: columns j = 1..n-1, within a column the
    pairs (0,j), (1,j), .., (j-1,j), with the first-read bit most
    significant.
    """

    n: int
    bits: int

    def graph6(self) -> str:
        return gio.to_graph6(self.graph())

    def graph(self) -> Graph:
        total = self.n * (self.n - 1) // 2
        edges = []
        for j in range(1, self.n):
            base = total - j * (j + 1) // 2
            for i in range(j):
                if self.bits >> (base + j - 1 - i) & 1:
                    edges.append((i, j))
        return Graph(self.n, edges)


def _twin_classes(masks: tuple[int, ...], n: int) -> list[int]:
    """twin_rep[v] = smallest vertex interchangeable with v by a single
    transposition (equal neighborhoods once mutual adjacency is ignored)."""
    twin_rep = list(range(n))
    for v in range(n):
        mv = masks[v]
        for u in range(v):
            strip = ~((1 << u) | (1 << v))
            if masks[u] & strip == mv & strip:
                twin_rep[v] = twin_rep[u]
                break
    return twin_rep


def _refine(cells: list[list[int]], masks: tuple[int, ...],
            quiet: Iterable[int] = ()) -> list[list[int]]:
    """Equitable refinement of an ordered partition: take the first cell
    whose mask splits some cell by neighbor counts, split every cell by it,
    sub-cells ordered by count, and repeat until stable. Deterministic and
    relabeling-invariant.

    A cell mask that splits no cell of a partition splits no cell of a finer
    one, so a mask found quiet is not tested again. `quiet` seeds that set
    with masks known to split nothing, such as the cells of an equitable
    partition that `cells` refines; the result does not depend on it."""
    quiet = set(quiet)
    while True:
        for splitter in cells:
            smask = 0
            for v in splitter:
                smask |= 1 << v
            if smask in quiet:
                continue
            new_cells = None
            for ci, cell in enumerate(cells):
                if len(cell) == 1:
                    if new_cells is not None:
                        new_cells.append(cell)
                    continue
                buckets: dict[int, list[int]] = {}
                for v in cell:
                    buckets.setdefault((masks[v] & smask).bit_count(),
                                       []).append(v)
                if len(buckets) == 1:
                    if new_cells is not None:
                        new_cells.append(cell)
                    continue
                if new_cells is None:
                    new_cells = cells[:ci]
                for k in sorted(buckets):
                    new_cells.append(buckets[k])
            if new_cells is not None:
                cells = new_cells
                break
            quiet.add(smask)
        else:
            return cells


def canonical_bits(masks: tuple[int, ...], n: int) -> int:
    """Canonical adjacency bitstring: the least leaf value of the
    refinement search tree (see the module docstring). Equal values mean
    isomorphic graphs; the value is not the minimum over all relabelings."""
    return _canonical_search(masks, n)[0]


def _canonical_search(masks: tuple[int, ...], n: int
                      ) -> tuple[int, list[tuple[int, ...]]]:
    """Canonical bits and automorphisms, by individualization-refinement.

    Each search node holds an equitable ordered partition; the first
    non-singleton cell that is not a class of mutual twins is the target,
    and each of its members is individualized in turn (members in the same
    orbit of an already-discovered automorphism are skipped). When every
    non-singleton cell consists of mutual twins the partition is effectively
    discrete: any ordering inside a twin cell yields the same bitstring.
    Leaves emit the packed upper triangle; equal-to-best leaves contribute
    automorphisms that feed the orbit pruning.

    The automorphisms are returned as perms (vertex v maps to perm[v]):
    the twin transpositions plus every one found at a leaf. They generate
    a subgroup of Aut(G), usually all of it. No cap on them is needed:
    the orbit pruning keeps few leaves equal to the best, so few are found
    (at most 10 on every graph with n <= 8), and pruning by automorphisms
    never skips the least leaf, so the bits do not depend on how many.
    """
    if n <= 1:
        return 0, []
    twin_rep = _twin_classes(masks, n)
    auts: list[tuple[int, ...]] = []
    for v in range(n):
        if twin_rep[v] != v:
            perm = list(range(n))
            perm[v], perm[twin_rep[v]] = twin_rep[v], v
            auts.append(tuple(perm))
    best: int | None = None
    best_order: list[int] | None = None

    def emit(order: list[int]) -> int:
        bits = 0
        for j in range(1, n):
            mj = masks[order[j]]
            col = 0
            for i in range(j):
                col = col << 1 | (mj >> order[i] & 1)
            bits = bits << j | col
        return bits

    def orbit(v: int, stab: list[tuple[int, ...]]) -> set[int]:
        out = {v}
        frontier = [v]
        while frontier:
            u = frontier.pop()
            for a in stab:
                w = a[u]
                if w not in out:
                    out.add(w)
                    frontier.append(w)
        return out

    def node(cells: list[list[int]], fixed: tuple[int, ...]):
        nonlocal best, best_order
        target = -1
        for ci, cell in enumerate(cells):
            if len(cell) > 1:
                r = twin_rep[cell[0]]
                if any(twin_rep[v] != r for v in cell):
                    target = ci
                    break
        if target < 0:
            order = [v for cell in cells for v in cell]
            s = emit(order)
            if best is None or s < best:
                best, best_order = s, order
            elif s == best:
                perm = [0] * n
                for i in range(n):
                    perm[best_order[i]] = order[i]
                tperm = tuple(perm)
                if tperm not in auts:
                    auts.append(tperm)
            return
        stab = [a for a in auts if all(a[x] == x for x in fixed)]
        # cells is equitable: none of its cells splits a cell of a child
        settled = [sum(1 << u for u in cell) for cell in cells]
        done: set[int] = set()
        for v in cells[target]:
            if v in done:
                continue
            done |= orbit(v, stab)
            rest = [u for u in cells[target] if u != v]
            new_cells = cells[:target] + [[v], rest] + cells[target + 1:]
            node(_refine(new_cells, masks, settled), fixed + (v,))
            stab = [a for a in auts if all(a[x] == x for x in fixed)]

    node(_refine([list(range(n))], masks), ())
    assert best is not None
    return best, auts


def canonical_form(g: Graph) -> CanonicalForm:
    if g.n > CANONICAL_MAX_N:
        raise ResourceLimitError(
            f"canonical_form supports n <= {CANONICAL_MAX_N}, got {g.n}")
    return CanonicalForm(g.n, canonical_bits(g.masks, g.n))


# ---------------------------------------------------------------------------
# Isomorph-free enumeration
# ---------------------------------------------------------------------------

_ATLAS_CACHE: dict[int, list[Graph]] = {0: [Graph(0)]}


def _orbit_least_masks(auts: list[tuple[int, ...]], n: int) -> list[int]:
    """The masks on vertices 0..n-1 that are least in their orbit under the
    group the perms `auts` generate, in ascending order."""
    size = 1 << n
    if not auts:
        return list(range(size))
    images = []
    for a in auts:
        img = [0] * size
        for m in range(1, size):
            low = m & -m
            img[m] = img[m ^ low] | 1 << a[low.bit_length() - 1]
        images.append(img)
    visited = bytearray(size)
    least = []
    for m in range(size):
        if visited[m]:
            continue
        least.append(m)
        visited[m] = 1
        stack = [m]
        while stack:
            x = stack.pop()
            for img in images:
                y = img[x]
                if not visited[y]:
                    visited[y] = 1
                    stack.append(y)
    return least


def _triangles(masks: tuple[int, ...]) -> list[int]:
    """The number of triangles through each vertex."""
    return [sum((masks[u] & m).bit_count() for u in _bits(m)) >> 1
            for m in masks]


def _deletion_key(rows: list[int], b: int) -> int:
    """An isomorphism invariant of a graph on fewer than 2^b vertices, read
    off its _vertex_rows: its degree histogram, the sum of
    1 << (b * deg v), plus its triangle count shifted past it,
    << (b << b)."""
    dmask = (1 << b) - 1
    tmask = (1 << 2 * b) - 1
    hist = sum(1 << b * (r & dmask) for r in rows)
    return hist + (sum(r >> b & tmask for r in rows) // 3 << (b << b))


def _deletion_tables(base: tuple[int, ...], rows: list[int], b: int
                     ) -> tuple[int, list[int], list[int], list[int]]:
    """The parts of the deletion test of parent `base` (rows `rows`, from
    _vertex_rows(base, b)) that do not depend on the attachment set:
    (key0, up, dup, h0).

    key0 is the parent's _deletion_key. A vertex u of degree d adds
    pw[u] = 1 << b*d to the histogram, and a neighbour's deletion moves it
    down one degree, which takes drop[u] = pw[u] - (pw[u] >> b). When u is
    attached its degree goes up by one: its histogram term grows by up[u]
    and its drop by dup[u]. h0[w] is what deleting w takes from the key of
    a child in which w and its neighbours are not attached."""
    s = b << b
    tmask = (1 << 2 * b) - 1
    tri = [r >> b & tmask for r in rows]
    pw = [1 << b * m.bit_count() for m in base]
    drop = [p - (p >> b) for p in pw]
    up = [(p << b) - p for p in pw]
    dup = [x - y for x, y in zip(up, drop)]
    h0 = [-p - (t << s) - sum(drop[y] for y in _bits(m))
          for p, t, m in zip(pw, tri, base)]
    return sum(pw) + (sum(tri) // 3 << s), up, dup, h0


def _earlier_deletion(base: tuple[int, ...], attach: int,
                      tables: tuple[int, list[int], list[int], list[int]],
                      b: int, last: dict[int, int], i: int) -> bool:
    """Whether the child C of parent i (masks `base`, `tables` from
    _deletion_tables) whose new vertex is joined to `attach` has an old
    vertex w with last[_deletion_key(C - w)] < i.

    C's key is key0 plus up[u] for each attached u, the new vertex's
    histogram term, and one triangle per edge among the attached. Each
    key of C - w follows from it in O(|N(w) & attach|): h0[w], dup[y] for
    each attached neighbour y of w, and, if w itself is attached, its
    degree step up[w], the new vertex's move down one degree and the
    triangles that w closes with the new vertex."""
    key0, up, dup, h0 = tables
    s = b << b
    pw_new = 1 << b * attach.bit_count()
    drop_new = pw_new - (pw_new >> b)
    key = key0 + pw_new
    inner = 0
    a = attach
    while a:
        low = a & -a
        u = low.bit_length() - 1
        key += up[u]
        inner += (base[u] & attach).bit_count()
        a ^= low
    key += inner >> 1 << s
    # latest vertex first: its deletion is the likeliest to be an early
    # parent (at n = 8, 1.2 vertices tried per dropped child against 2.9)
    for w in range(len(base) - 1, -1, -1):
        m = base[w] & attach
        h = key + h0[w]
        if attach >> w & 1:
            h -= up[w] + drop_new + (m.bit_count() << s)
        while m:
            low = m & -m
            h -= dup[low.bit_length() - 1]
            m ^= low
        if last[h] < i:
            return True
    return False


def _vertex_rows(masks: tuple[int, ...], b: int) -> list[int]:
    """Per vertex v of a graph on fewer than 2^b vertices, the row
    (deg v, triangles through v, sum of the degrees of v's neighbours)
    packed as deg | tri << b | nsum << 3b, each field below its shift."""
    deg = [m.bit_count() for m in masks]
    return [d | t << b | sum(deg[u] for u in _bits(m)) << 3 * b
            for d, t, m in zip(deg, _triangles(masks), masks)]


def _child_rows(base: tuple[int, ...], rows: list[int], attach: int,
                b: int) -> list[int]:
    """_vertex_rows of the child of `base` (rows `rows`, from
    _vertex_rows(base, b)) whose new vertex is joined to `attach`, with no
    graph built. An old vertex u with c neighbours in `attach` gains c in
    its neighbour-degree sum; if u is attached it also gains one degree, c
    triangles and the new vertex's degree k = |attach|. The new vertex has
    degree k, one triangle per edge among the attached and the attached
    vertices' degrees plus k as its sum."""
    t = 3 * b
    k = attach.bit_count()
    dmask = (1 << b) - 1
    out = []
    inner = nsum = 0
    for u, m in enumerate(base):
        c = (m & attach).bit_count()
        r = rows[u] + (c << t)
        if attach >> u & 1:
            r += 1 + (c << b) + (k << t)
            inner += c
            nsum += rows[u] & dmask
        out.append(r)
    out.append(k | (inner >> 1) << b | nsum + k << t)
    return out


def _class_key(rows: list[int]) -> int:
    """A hash of the sorted multiset of packed rows: an isomorphism
    invariant of the graph whose _vertex_rows they are, one machine word
    whatever n. It is lossy, but two classes that share it only cost
    canonical forms (_new_class)."""
    return hash(tuple(sorted(rows)))


def _deletion_rows(masks: tuple[int, ...], rows: list[int], w: int,
                   b: int) -> list[int]:
    """_vertex_rows of C - w, in vertex order, from the masks and rows of
    C, with no graph built. A vertex v with c neighbours in N(w) loses c
    from its neighbour-degree sum; if v is a neighbour of w it also loses
    one degree, c triangles and w's degree from the sum."""
    t = 3 * b
    mw = masks[w]
    dw = mw.bit_count()
    out = []
    for v, m in enumerate(masks):
        if v != w:
            c = (m & mw).bit_count()
            r = rows[v] - (c << t)
            if mw >> v & 1:
                r -= 1 + (c << b) + (dw << t)
            out.append(r)
    return out


def _earlier_class(masks: tuple[int, ...], rows: list[int], b: int,
                   last_class: dict[int, int], i: int) -> bool:
    """Whether the child C of parent i (masks `masks`, rows `rows`) has an
    old vertex w with last_class[_class_key(C - w)] < i, trying the latest
    vertex first; the new vertex, the last one, is never tried."""
    for w in range(len(masks) - 2, -1, -1):
        if last_class[_class_key(_deletion_rows(masks, rows, w, b))] < i:
            return True
    return False


def _new_class(seen: dict[int, tuple[int, ...] | int | set[int]], key: int,
               masks: tuple[int, ...], n: int) -> bool:
    """Whether the child `masks` is a class not yet in `seen`, recording
    it if so. `seen` maps each class key met to the first child kept with
    it, as its masks until a second child with that key arrives, then as
    its canonical bits, and as the set of bits of every kept child in the
    rare case where two classes share the key."""
    entry = seen.get(key)
    if entry is None:
        seen[key] = masks
        return True
    bits = canonical_bits(masks, n)
    if type(entry) is tuple:
        entry = seen[key] = canonical_bits(entry, n)
    if type(entry) is int:
        if bits == entry:
            return False
        seen[key] = {entry, bits}
        return True
    if bits in entry:
        return False
    entry.add(bits)
    return True


def _atlas_level(n: int) -> list[Graph]:
    """One representative per isomorphism class on exactly n vertices,
    grown by vertex augmentation from the (n-1)-level. Cached per process.

    Each parent gets a new vertex n-1 joined to an attachment set. Only the
    sets least in their orbit under Aut(parent) are tried, in ascending
    mask order (orbit pruning, after McKay, *Isomorph-free exhaustive
    generation*, J. Algorithms 26, 1998). The first child met for each
    class, and so every representative and its position, is the same as
    when all 2^(n-1) sets are tried and each child is kept when its
    canonical form is new.

    Deletion test. `last` maps each _deletion_key to the position of the
    last parent with that key. The child C of parent i is dropped, with no
    canonical form, when some old vertex w has last[key(C - w)] < i. It is
    dropped only if its class was met before:
    - C - w has n - 1 vertices, so it is isomorphic to some parent P_j. The
      key is an isomorphism invariant, so P_j has the key of C - w, and
      every parent with that key comes before i: j < i.
    - C is P_j plus a vertex joined to some set S (w is that vertex). The
      least set of S's orbit under the perms found for P_j was tried under
      P_j, and its child C' is isomorphic to C.
    - C' was met before C. By induction on the order children are met, its
      class was kept by then: C' was kept, or it was dropped, which happens
      only to a class already kept.
    The key only has to be an isomorphism invariant: a coarser key drops
    fewer children, never a wrong one. The new vertex is never tried as w:
    deleting it gives parent i, and last[key] >= i there. The tables of
    _deletion_tables are built once per parent, so each child costs
    O(|N(w) & A|) per old vertex w.

    Dedup by class key. Each child the deletion test keeps gets its
    _class_key, a hash of the sorted rows (degree, triangles,
    neighbour-degree sum) of its vertices, which _child_rows computes from
    the parent's rows with no graph built.
    Lemma: a child is kept iff no kept child is isomorphic to it, exactly
    as when every child's canonical form is looked up.
    - A child whose key is new is a new class: a kept child isomorphic to
      it would have the same key, since the key is an isomorphism
      invariant, and every kept child's key is in `seen`.
    - A child whose key was met is dropped by the second deletion test
      below only if its class was met, and one that test keeps is compared
      by canonical_bits with every kept child of that key (_new_class);
      no other kept child can be isomorphic to it.
    So every level, its order and every representative are unchanged; a
    coarser key, or two classes whose rows hash alike, would only cost more
    canonical forms.

    Second deletion test. `last_class` maps each _class_key of a parent to
    the position of the last parent with it. A kept child C whose key is
    in `seen` is dropped, with no canonical form, when some old vertex w
    has last_class[key(C - w)] < i (_earlier_class). The proof is the
    deletion test's with the class key in place of the deletion key: it is
    an isomorphism invariant, so the parent P_j isomorphic to C - w has it
    and j <= last_class[key(C - w)] < i. Again the new vertex is never
    tried as w. _deletion_rows derives the rows of C - w from C's in O(n)
    mask operations, latest w first. A child with a new key skips the
    test, being a new class in any case. The test runs on 168, 8,602 and
    548,526 children at n = 7, 8 and 9 and drops 168, 8,506 and 540,248
    of them, so canonical_bits runs 0 times to n = 7, then
    186 and 15,121 times at n = 8 and 9. That is against 325, 14,413 and
    769,126 with no second test, 1,212, 20,856 and 816,686 with every kept
    child's form looked up, and 5,096, 79,264 and 2,208,612 orbit-least
    children.

    A child is built from its parent's masks, and only when the deletion
    test keeps it; no level caches an edge tuple on the graphs it keeps.
    Each parent's rows are computed once, before the loop, and give its
    deletion key, its class key and its deletion tables.
    """
    cached = _ATLAS_CACHE.get(n)
    if cached is not None:
        return cached
    parents = _atlas_level(n - 1)
    seen: dict[int, tuple[int, ...] | int | set[int]] = {}
    level: list[Graph] = []
    new = n - 1
    bit = 1 << new
    # one int object per mask value, shared by every child: a mask above
    # 256 is past CPython's small-int cache, and at n = 9 a fresh int per
    # attached vertex of each kept child was 48 of the 126 MiB that
    # building the level added
    ints = list(range(bit << 1))
    b = n.bit_length()
    parent_rows = [_vertex_rows(p.masks, b) for p in parents]
    last = {_deletion_key(rows, b): i for i, rows in enumerate(parent_rows)}
    last_class = {_class_key(rows): i for i, rows in enumerate(parent_rows)}
    for i, (parent, rows) in enumerate(zip(parents, parent_rows)):
        base = parent.masks
        tables = _deletion_tables(base, rows, b)
        # A set A and its image under an automorphism a of the parent give
        # isomorphic children (extend a by fixing the new vertex), and the
        # least set of the orbit comes first in this loop, so each skipped
        # set would have been dropped as met. Where the stored perms
        # generate only a subgroup, its orbits are finer: more sets are
        # tried, and the same first child is kept.
        auts = _canonical_search(base, new)[1]
        for attach in _orbit_least_masks(auts, new):
            if _earlier_deletion(base, attach, tables, b, last, i):
                continue
            child_rows = _child_rows(base, rows, attach, b)
            key = _class_key(child_rows)
            masks = tuple(ints[m | bit] if attach >> u & 1 else m
                          for u, m in enumerate(base)) + (ints[attach],)
            if key in seen and _earlier_class(masks, child_rows, b,
                                              last_class, i):
                continue
            if _new_class(seen, key, masks, n):
                level.append(Graph._from_masks(masks))
    _ATLAS_CACHE[n] = level
    return level


def enumerate_graphs(n: int, filter: str = "all") -> Iterator[Graph]:
    """Exactly one representative per isomorphism class on n vertices.

    filter: 'all', 'no-isolated' (no isolated vertices), or 'connected'.
    Each class comes as a new Graph on the atlas's masks: what a caller
    caches on it (Graph.edges) is freed with it, not kept by the atlas.
    """
    if n < 0:
        raise ParameterRangeError(f"vertex count must be >= 0, got {n}")
    limit = resolve_cap("EDGEIDEALS_MAX_ENUM_N", ENUMERATE_MAX_N)
    if n > limit:
        raise ResourceLimitError(
            f"enumerate_graphs supports n <= {limit}, got {n}; set "
            f"EDGEIDEALS_MAX_ENUM_N to override")
    if filter not in ("all", "no-isolated", "connected"):
        raise ParameterRangeError(f"unknown filter {filter!r}")
    for g in _atlas_level(n):
        if filter == "no-isolated" and isolated_vertices(g):
            continue
        if filter == "connected" and not is_connected(g):
            continue
        yield Graph._from_masks(g.masks)


def random_graph(n: int, edge_prob: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) sample from Python's Mersenne Twister, drawing
    pairs (0,1), (0,2), .., (n-2,n-1) in lexicographic order, so identical
    seeds give identical graphs on every platform."""
    if not 0 <= edge_prob <= 1:
        raise ParameterRangeError(f"edge_prob must be in [0, 1], got {edge_prob}")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < edge_prob]
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Family recognition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyTag:
    """Outcome of structural recognition: kind is one of '2k2', 'c4', 'hs'
    (with the clique size in s) or 'other'."""

    kind: str
    s: int | None = None


def recognize_family(g: Graph) -> FamilyTag:
    """Recognize the three extremal families structurally, without generic
    isomorphism testing."""
    n = g.n
    degs = [g.degree(v) for v in range(n)]
    if n == 4 and g.m == 2 and all(d == 1 for d in degs):
        return FamilyTag("2k2")
    if n == 4 and g.m == 4 and all(d == 2 for d in degs):
        return FamilyTag("c4")
    s = math.isqrt(n)
    if n >= 1 and s * s == n:
        core = [v for v in range(n) if degs[v] == 2 * s - 2]
        rest = [v for v in range(n) if degs[v] != 2 * s - 2]
        if s == 1:
            return FamilyTag("hs", 1) if n == 1 and degs[0] == 0 else FamilyTag("other")
        if (len(core) == s
                and all(g.has_edge(u, v) for i, u in enumerate(core)
                        for v in core[i + 1:])
                and all(degs[v] == 1 for v in rest)):
            owners = [0] * n
            ok = True
            for v in rest:
                (u,) = g.neighbors(v)
                if u not in set(core):
                    ok = False
                    break
                owners[u] += 1
            if ok and all(owners[u] == s - 1 for u in core):
                return FamilyTag("hs", s)
    return FamilyTag("other")


# ---------------------------------------------------------------------------
# Verification harnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Result of checking tau_max >= ceil(2*sqrt(n) - 2) over one n."""

    n: int
    classes_visited: int
    violations: tuple[str, ...]
    equality_class: tuple[str, ...]

    def json_line(self) -> str:
        return json.dumps(asdict(self))


def _isolate_free_samples(n: int, count: int, seed: int) -> Iterator[Graph]:
    rng = random.Random(seed)
    probs = (0.15, 0.3, 0.5, 0.7, 0.85)
    produced = 0
    i = 0
    while produced < count:
        g = random_graph(n, probs[i % len(probs)], rng.randrange(2 ** 62))
        i += 1
        if not isolated_vertices(g):
            produced += 1
            yield g


def verify_bound(n_max: int, exhaustive: bool = True,
                 samples: int | None = None,
                 seed: int | None = None) -> list[BoundReport]:
    """Check the lower bound for the maximum minimal cover over all
    isolate-free graphs for n = 2..n_max: exhaustively over isomorphism
    classes, or on seeded random samples. Comparisons are integer-exact:
    tau >= ceil(2*sqrt(n) - 2) iff (tau + 2)^2 >= 4n.

    The complement of a maximal independent set S is a minimal cover, so
    tau_max >= n - |S|. A class whose greedy S
    (covers._greedy_independent) puts n - |S| above the bound is neither a
    violation nor on the bound, and its tau_max is not searched for: 784
    of the 1,043 isolate-free classes with n <= 7."""
    if n_max < 2:
        raise ParameterRangeError(f"verify_bound needs n_max >= 2, got {n_max}")
    if not exhaustive and (samples is None or seed is None):
        raise ParameterRangeError("sampled mode needs samples and seed")
    if not exhaustive and samples < 1:
        raise ParameterRangeError(
            f"sampled mode needs samples >= 1, got {samples}")
    reports = []
    for n in range(2, n_max + 1):
        source = (enumerate_graphs(n, "no-isolated") if exhaustive
                  else _isolate_free_samples(n, samples, seed + n))
        visited = 0
        violations = []
        equality = []
        bound = spectrum.cover_lower_bound(n)
        for g in source:
            visited += 1
            if n - covers._greedy_independent(g.masks).bit_count() > bound:
                continue
            tau = covers.tau_max(g)
            if (tau + 2) ** 2 < 4 * n:
                violations.append(gio.to_graph6(g))
            elif tau == bound:
                equality.append(gio.to_graph6(g))
        reports.append(BoundReport(n, visited, tuple(violations),
                                   tuple(equality)))
    return reports


@dataclass(frozen=True)
class ClassificationReport:
    """Both directions of the perfect-square equality classification."""

    n: int
    classes_visited: int
    equality_class: tuple[str, ...]
    recognized_tags: tuple[str, ...]
    mismatches: tuple[str, ...]

    def json_line(self) -> str:
        return json.dumps(asdict(self))


def verify_classification(n: int) -> ClassificationReport:
    """For perfect squares n (4 or 9 at desk scale): tau_max equals
    2*sqrt(n) - 2 exactly for the recognized families, in both directions.
    Every class is recognized; tau_max is searched for only where a greedy
    maximal independent set leaves it possibly on the target (see
    verify_bound)."""
    if n not in (4, 9):
        raise ParameterRangeError(
            f"classification check supports n in {{4, 9}}, got {n}")
    target = 2 * math.isqrt(n) - 2
    visited = 0
    equality = []
    tags = []
    mismatches = []
    for g in enumerate_graphs(n, "no-isolated"):
        visited += 1
        tag = recognize_family(g)
        # tau_max >= n - |S| for a greedy maximal independent set S, so a
        # class with n - |S| > target is off the target with no search
        if (n - covers._greedy_independent(g.masks).bit_count() <= target
                and covers.tau_max(g) == target):
            equality.append(gio.to_graph6(g))
            tags.append(tag.kind if tag.s is None else f"{tag.kind}:{tag.s}")
            if tag.kind == "other":
                mismatches.append(gio.to_graph6(g))
        elif tag.kind != "other":
            mismatches.append(gio.to_graph6(g))
    return ClassificationReport(n, visited, tuple(equality), tuple(tags),
                                tuple(mismatches))


@dataclass(frozen=True)
class SpectrumCheck:
    """One (n, p) construction checked end to end."""

    n: int
    p: int
    tau_max: int
    chordal: bool
    gap_free: bool
    pd: int | None
    reg: int | None

    @property
    def ok(self) -> bool:
        hom_ok = (self.pd is None or
                  (self.pd == self.p and self.reg == 1))
        return (self.tau_max == self.p and self.chordal and self.gap_free
                and hom_ok)

    def json_line(self) -> str:
        return json.dumps({**asdict(self), "ok": self.ok})


def verify_spectrum(n_max: int) -> list[SpectrumCheck]:
    """Build every legal (n, p) spectrum graph for n = 2..n_max and check
    tau_max = p, chordality and gap-freeness; for n up to the Betti cap in
    force (EDGEIDEALS_MAX_BETTI_N) also check (pd, reg) = (p, 1) through
    betti.pd_and_reg. Each of these graphs is a split graph: a clique,
    and its leaves an independent set. So is its complement, with the
    roles swapped, and split graphs are chordal, so the pair is the
    closed form for a chordal complement, the same over every field, with
    no subset visited; `edgeideals betti` gives the Hochster sum's pair."""
    if n_max < 2:
        raise ParameterRangeError(
            f"verify_spectrum needs n_max >= 2, got {n_max}")
    homology_n = betti._betti_cap()
    out = []
    for n in range(2, n_max + 1):
        for p in range(spectrum.cover_lower_bound(n), n):
            g = spectrum.build_spectrum_graph(n, p)
            assert g.n == n
            pd = reg = None
            if n <= homology_n:
                pd, reg = betti.pd_and_reg(g)
            out.append(SpectrumCheck(
                n=n, p=p, tau_max=covers.tau_max(g),
                chordal=is_chordal(g), gap_free=is_gap_free(g),
                pd=pd, reg=reg))
    return out


@dataclass(frozen=True)
class PdrPoint:
    """A realized (pd, reg) pair with a witness graph."""

    p: int
    r: int
    witness: CanonicalForm

    def graph6(self) -> str:
        return self.witness.graph6()


@dataclass(frozen=True)
class PdrSpectrumReport:
    """Full set of (pd, reg) pairs realizable on n isolate-free vertices."""

    n: int
    characteristic: int
    points: tuple[PdrPoint, ...]
    classes_visited: int
    # classes settled with no sum, by a closed form or by bounds that meet
    # (the lazy order of betti.pd_and_reg)
    certified: int

    @property
    def pairs(self) -> set[tuple[int, int]]:
        return {(pt.p, pt.r) for pt in self.points}

    def row(self, r: int) -> set[int]:
        return {p for p, rr in self.pairs if rr == r}

    def expected_r1_row(self) -> set[int]:
        return set(range(spectrum.cover_lower_bound(self.n), self.n))

    def conjecture_violations(self) -> list[tuple[int, int]]:
        """(p, r) realized with r >= 2 but (p, r-1) not realized."""
        pairs = self.pairs
        return sorted((p, r) for p, r in pairs
                      if r >= 2 and (p, r - 1) not in pairs)

    def csv_lines(self) -> list[str]:
        wit = {(pt.p, pt.r): pt.graph6() for pt in self.points}
        return [f"{self.n},{p},{r},{wit[p, r]}"
                for p, r in sorted(self.pairs)]


def pdr_spectrum(n: int, field: FieldSpec = GF2) -> PdrSpectrumReport:
    """Compute (pd, reg) for every isolate-free isomorphism class on n
    vertices; the witness kept per pair is the first class encountered in
    enumeration order. Each pair comes from the path of betti.pd_and_reg:
    a class settled by a closed form or by bounds that meet, each lower
    bound computed only when the verdict still depends on it, gets the
    same pair over every field; only the others go through the Hochster
    sum. n is held to the cap of enumerate_graphs
    (EDGEIDEALS_MAX_ENUM_N)."""
    if n < 2:
        raise ParameterRangeError(f"pdr_spectrum needs n >= 2, got {n}")
    found: dict[tuple[int, int], CanonicalForm] = {}
    visited = certified = 0
    for g in enumerate_graphs(n, "no-isolated"):
        visited += 1
        pr, summed = betti._certified_pd_and_reg(g, field)
        certified += not summed
        if pr not in found:
            found[pr] = CanonicalForm(n, canonical_bits(g.masks, n))
    points = tuple(PdrPoint(p, r, w) for (p, r), w in sorted(found.items()))
    return PdrSpectrumReport(n=n, characteristic=field.characteristic,
                             points=points, classes_visited=visited,
                             certified=certified)
