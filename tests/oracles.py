"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive and shares no code with the package
internals: subset scans, exhaustive enumerations, dense matrices, Fraction
arithmetic, no bitsets, no memoization, no shortcuts. Three exceptions:
`matching_branching`, an exact memoized branching search on vertex
bitmasks, is independent of the package's blossom algorithm and fast
enough to check matchings up to n of about 18; `induced_matching_branching`,
a recursive branch and bound over the edges, is independent of the
package's Bron-Kerbosch search on the conflict graph; `atlas_levels_unpruned`
calls the package's public `canonical_bits`, whose own tests check it
against brute-force isomorphism, and checks the atlas's orbit pruning;
`dual_regularity_full` builds every non-cone cover's complex with the
package's `from_facets` and `homology_dims`, whose own tests check them
against brute force, and checks the dual search's order and stops.

`relabel`, `disjoint_union` and `induced_subgraph` are the graph
transforms the tests build their inputs with; the package itself works
on vertex masks of one graph and needs none of them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from edgeideals.atlas import canonical_bits
from edgeideals.errors import ParameterRangeError
from edgeideals.graphs import Graph
from edgeideals.homology import FieldSpec, SimplicialComplex, homology_dims


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel vertices: old vertex v becomes perm[v]. perm must be a
    permutation of 0..n-1."""
    if sorted(perm) != list(range(g.n)):
        raise ParameterRangeError("perm is not a permutation of 0..n-1")
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertices are relabeled by offset g.n."""
    off = g.n
    edges = list(g.edges) + [(u + off, v + off) for u, v in h.edges]
    return Graph(g.n + h.n, edges)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Induced subgraph on the given vertices, preserving relative order."""
    vs = sorted(set(vertices))
    if vs and not (0 <= vs[0] and vs[-1] < g.n):
        raise ParameterRangeError(f"vertex set out of range for n={g.n}")
    index = {v: i for i, v in enumerate(vs)}
    edges = [(index[u], index[v]) for u, v in g.edges
             if u in index and v in index]
    return Graph(len(vs), edges)


def all_subsets(items):
    for size in range(len(items) + 1):
        yield from combinations(items, size)


def is_cover(g: Graph, w) -> bool:
    ws = set(w)
    return all(u in ws or v in ws for u, v in g.edges)


def minimal_covers_bruteforce(g: Graph) -> list[tuple[int, ...]]:
    """Every minimal vertex cover, by scanning all vertex subsets."""
    out = []
    for w in all_subsets(range(g.n)):
        if not is_cover(g, w):
            continue
        if all(not is_cover(g, set(w) - {v}) for v in w):
            out.append(tuple(sorted(w)))
    return sorted(out)


def all_matchings(g: Graph):
    """Every matching of g exactly once, as a tuple of edges: each matching
    grows by the edges after its last one in `g.edges` that touch none of
    its vertices."""
    edges = g.edges
    stack = [((), frozenset(), 0)]
    while stack:
        chosen, used, start = stack.pop()
        yield chosen
        for i in range(start, len(edges)):
            u, v = edges[i]
            if u not in used and v not in used:
                stack.append((chosen + (edges[i],), used | {u, v}, i + 1))


def matching_bruteforce(g: Graph) -> int:
    return max(len(chosen) for chosen in all_matchings(g))


def matching_branching(g: Graph) -> int:
    """Matching number by branching on the lowest non-isolated vertex v of
    the remaining vertex set: leave v unmatched, or match it to each
    remaining neighbour. Memoized on the remaining-vertex mask, so time and
    memory grow exponentially and recursion is as deep as n."""
    masks = g.masks
    memo: dict[int, int] = {}

    def rec(avail: int) -> int:
        v = -1
        pool = avail
        while pool:
            low = pool & -pool
            u = low.bit_length() - 1
            if masks[u] & avail:
                v = u
                break
            pool ^= low
        if v == -1:
            return 0
        cached = memo.get(avail)
        if cached is not None:
            return cached
        rest = avail & ~(1 << v)
        best = rec(rest)  # leave v unmatched
        nb = masks[v] & avail
        while nb:
            low = nb & -nb
            cand = 1 + rec(rest & ~low)
            if cand > best:
                best = cand
            nb ^= low
        memo[avail] = best
        return best

    return rec((1 << g.n) - 1)


def induced_matching_bruteforce(g: Graph) -> int:
    """Largest matching whose vertices span no edge outside it."""
    best = 0
    edges = g.edges
    for chosen in all_matchings(g):
        vs = {v for e in chosen for v in e}
        induced = [e for e in edges if e[0] in vs and e[1] in vs]
        if len(induced) == len(chosen):
            best = max(best, len(chosen))
    return best


def induced_matching_branching(g: Graph) -> int:
    """Induced matching number by a recursive branch and bound over the
    edges, the reference for the package's `induced_matching_number`.
    Taking edge (u, v) bans every vertex of N[u] | N[v]; a branch stops
    when the edges left cannot beat the best size found. Recursion is as
    deep as the induced matching number."""
    edges = g.edges
    if not edges:
        return 0
    closed = [(1 << u) | (1 << v) | g.masks[u] | g.masks[v] for u, v in edges]
    m = len(edges)
    best = 0

    def rec(start: int, banned: int, size: int):
        nonlocal best
        if size > best:
            best = size
        for idx in range(start, m):
            if size + (m - idx) <= best:
                break
            u, v = edges[idx]
            if banned >> u & 1 or banned >> v & 1:
                continue
            rec(idx + 1, banned | closed[idx], size + 1)

    rec(0, 0, 0)
    return best


def is_chordal_bruteforce(g: Graph) -> bool:
    """No induced cycle of length >= 4: check every vertex subset."""
    for size in range(4, g.n + 1):
        for sub in combinations(range(g.n), size):
            vs = set(sub)
            deg = {v: sum(1 for u in g.neighbors(v) if u in vs) for v in sub}
            if any(d != 2 for d in deg.values()):
                continue
            # connected 2-regular induced subgraph = induced cycle
            seen = {sub[0]}
            stack = [sub[0]]
            while stack:
                v = stack.pop()
                for u in g.neighbors(v):
                    if u in vs and u not in seen:
                        seen.add(u)
                        stack.append(u)
            if len(seen) == size:
                return False
    return True


def least_separator_bruteforce(g: Graph) -> int:
    """Vertex connectivity: the fewest vertices whose removal leaves a
    disconnected graph, by scanning vertex subsets; n - 1 when g is
    complete, as no removal disconnects it."""
    for size in range(g.n - 1):
        for cut in combinations(range(g.n), size):
            rest = set(range(g.n)) - set(cut)
            start = min(rest)
            seen = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                for u in g.neighbors(v):
                    if u in rest and u not in seen:
                        seen.add(u)
                        stack.append(u)
            if seen != rest:
                return size
    return g.n - 1


def graph6_bitwise(g: Graph) -> str:
    """graph6 as the format describes it, one bit at a time: the size
    field, then x01, x02, x12, x03, ... packed six to a byte, zero-padded,
    every byte offset by 63."""
    n = g.n
    if n <= 62:
        digits = [n]
    elif n <= 258047:
        digits = [63] + [n >> s & 63 for s in (12, 6, 0)]
    else:
        digits = [63, 63] + [n >> s & 63 for s in (30, 24, 18, 12, 6, 0)]
    bits = [int(g.has_edge(i, j)) for j in range(n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    for k in range(0, len(bits), 6):
        digits.append(int("".join(map(str, bits[k:k + 6])), 2))
    return "".join(chr(d + 63) for d in digits)


def independent_sets_bruteforce(g: Graph) -> list[tuple[int, ...]]:
    out = []
    for w in all_subsets(range(g.n)):
        if all(not g.has_edge(u, v) for u, v in combinations(w, 2)):
            out.append(w)
    return out


def _rank_fraction(rows: list[list[int]]) -> int:
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] / pr[c]
                rows[r] = [x - f * y for x, y in zip(rows[r], pr)]
        rank += 1
    return rank


def _rank_modp(rows: list[list[int]], p: int) -> int:
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        inv = pow(pr[c], p - 2, p)
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = (rows[r][c] * inv) % p
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], pr)]
        rank += 1
    return rank


def homology_dims_naive(faces: list[tuple[int, ...]], characteristic: int) -> dict[int, int]:
    """Reduced homology dimensions of a complex given by its full face
    list (including the empty face), dense boundary matrices."""
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    for faces_k in by_dim.values():
        faces_k.sort()
    if not by_dim:
        return {}
    top = max(by_dim)
    ranks = {}
    for k in range(0, top + 1):
        below = {f: i for i, f in enumerate(by_dim.get(k - 1, []))}
        rows = []
        for f in by_dim.get(k, []):
            row = [0] * len(below)
            sign = 1
            for i in range(len(f)):
                row[below[f[:i] + f[i + 1:]]] = sign
                sign = -sign
            rows.append(row)
        if not rows or not rows[0]:
            ranks[k] = 0
        elif characteristic == 0:
            ranks[k] = _rank_fraction(rows)
        else:
            ranks[k] = _rank_modp(rows, characteristic)
    out = {}
    for k in range(-1, top + 1):
        d = (len(by_dim.get(k, [])) - ranks.get(k, 0) - ranks.get(k + 1, 0))
        if d:
            out[k] = d
    return out


def betti_table_naive(g: Graph, characteristic: int = 2) -> dict[tuple[int, int], int]:
    """The subset-homology sum evaluated with no skips and no memoization."""
    entries: dict[tuple[int, int], int] = {}
    for w in all_subsets(range(g.n)):
        ws = set(w)
        faces = [s for s in all_subsets(sorted(ws))
                 if all(not g.has_edge(u, v) for u, v in combinations(s, 2))]
        for k, dim in homology_dims_naive(faces, characteristic).items():
            key = (len(w) - 1 - k, len(w))
            entries[key] = entries.get(key, 0) + dim
    return entries


def dual_regularity_naive(g: Graph, characteristic: int = 2) -> int:
    """reg of the cover ideal: the subset-homology sum over the non-cover
    complex, every subset W visited, faces found by the cover test."""
    reg_quotient = 0
    for w in all_subsets(range(g.n)):
        faces = [s for s in all_subsets(w) if not is_cover(g, s)]
        for k in homology_dims_naive(faces, characteristic):
            reg_quotient = max(reg_quotient, k + 1)
    return reg_quotient + 1


def dual_regularity_full(g: Graph, characteristic: int = 2) -> int:
    """reg of the cover ideal from the full homology of the non-cover
    complex over every vertex cover W that is not a cone: W scanned as a
    bitmask, the complex generated by W - A for the inclusion-minimal sets
    A among the e & W, and a vertex of W in no minimal A marking a cone."""
    field = FieldSpec(characteristic)
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


def atlas_levels_unpruned(n_max: int) -> list[list[Graph]]:
    """Isomorph-free levels 0..n_max by vertex augmentation with no pruning:
    every parent on level n - 1 gets a new vertex n - 1 joined to each of
    the 2^(n-1) attachment sets in ascending mask order, and a child is
    kept when its canonical bits are new on its level. No cache."""
    levels = [[Graph(0)]]
    for n in range(1, n_max + 1):
        seen = set()
        level = []
        for parent in levels[-1]:
            for attach in range(1 << (n - 1)):
                child = Graph(n, list(parent.edges)
                              + [(v, n - 1) for v in range(n - 1)
                                 if attach >> v & 1])
                bits = canonical_bits(child.masks, n)
                if bits not in seen:
                    seen.add(bits)
                    level.append(child)
        levels.append(level)
    return levels
