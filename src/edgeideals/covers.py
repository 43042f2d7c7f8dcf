"""Exact cover and matching invariants.

One iterative Bron-Kerbosch search lists maximal independent sets, for
both exponential invariants: minimal vertex covers are their complements,
and induced matchings are the independent sets of the conflict graph on the
edges (Cameron, *Induced matchings*, Discrete Appl. Math. 24, 1989). Desk
scale: roughly n <= 40 for the structured families, n <= 25 in general.
The search raises ResourceLimitError once it has listed more sets than
EDGEIDEALS_MAX_MIS (default DEFAULT_MAX_MIS, a million).
The matching number comes from Edmonds' blossom algorithm in O(n^3) time
and O(n) memory, iterative, so it is exact at any n.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ResourceLimitError, resolve_cap
from .graphs import Graph, _bits

# A search on tens of vertices lists about 250k sets a second, so this stops
# it after about 4 s; no test or benchmark input lists more than 82,047.
DEFAULT_MAX_MIS = 1_000_000


@dataclass(frozen=True)
class CoverReport:
    """Summary of the minimal-cover landscape of one graph.

    tau_max is the size of a maximum minimal vertex cover; i_min the size of
    a minimum maximal independent set (the complement notion). The witnesses
    are the lexicographically least sets attaining each value.
    """

    tau_max: int
    i_min: int
    witness_cover: tuple[int, ...]
    witness_independent: tuple[int, ...]
    num_minimal_covers: int


def _mis_masks(masks: Sequence[int]) -> Iterator[int]:
    """Maximal independent sets of the graph with adjacency masks `masks`,
    as bitmasks, in no particular order.

    Bron-Kerbosch with pivoting on the complement, whose cliques are the
    independent sets, on an explicit stack of (r, p, x) frames. Isolated
    vertices lie in every maximal independent set, so they start in r.

    Raises ResourceLimitError when there are more sets than the cap, the
    integer in EDGEIDEALS_MAX_MIS or else DEFAULT_MAX_MIS.
    """
    cap = resolve_cap("EDGEIDEALS_MAX_MIS", DEFAULT_MAX_MIS)
    left = cap
    full = (1 << len(masks)) - 1
    comp = [full & ~m & ~(1 << v) for v, m in enumerate(masks)]
    isolated = sum(1 << v for v, m in enumerate(masks) if not m)
    stack = [(isolated, full & ~isolated, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            left -= 1
            if left < 0:
                raise ResourceLimitError(
                    f"maximal independent set search passed {cap} sets; "
                    f"set EDGEIDEALS_MAX_MIS to override")
            yield r
            continue
        pool = p | x
        best = (pool & -pool).bit_length() - 1
        best_deg = (comp[best] & p).bit_count()
        while pool:
            low = pool & -pool
            v = low.bit_length() - 1
            deg = (comp[v] & p).bit_count()
            if deg > best_deg:
                best, best_deg = v, deg
            pool ^= low
        cand = p & ~comp[best]
        children = []
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            children.append((r | low, p & comp[v], x & comp[v]))
            p &= ~low
            x |= low
            cand ^= low
        stack.extend(reversed(children))


def maximal_independent_sets(g: Graph) -> list[tuple[int, ...]]:
    """All maximal independent sets, sorted lexicographically."""
    return sorted(_bits(m) for m in _mis_masks(g.masks))


def enumerate_minimal_covers(g: Graph) -> Iterator[tuple[int, ...]]:
    """An iterator over every minimal vertex cover exactly once, as a sorted
    vertex tuple, in lexicographic order of those tuples. All covers are
    enumerated and sorted before the first one is returned."""
    full = (1 << g.n) - 1
    covers = sorted(_bits(full & ~m) for m in _mis_masks(g.masks))
    return iter(covers)


def cover_report(g: Graph) -> CoverReport:
    """The cover landscape of g in one pass over its minimal covers, which
    are compared as masks: the larger one wins, and of two of the same size
    the one holding the least vertex where they differ, which is the
    lexicographically smaller sorted tuple."""
    full = (1 << g.n) - 1
    best = count = 0
    best_size = -1
    for mis in _mis_masks(g.masks):
        count += 1
        cover = full & ~mis
        size = cover.bit_count()
        d = cover ^ best
        if size > best_size or size == best_size and cover & d & -d:
            best, best_size = cover, size
    witness_cover = _bits(best)
    witness_independent = _bits(full & ~best)
    return CoverReport(
        tau_max=len(witness_cover),
        i_min=g.n - len(witness_cover),
        witness_cover=witness_cover,
        witness_independent=witness_independent,
        num_minimal_covers=count,
    )


def tau_max(g: Graph) -> int:
    """Size of a maximum minimal vertex cover."""
    return max(g.n - m.bit_count() for m in _mis_masks(g.masks))


def is_vertex_cover(g: Graph, vertices) -> bool:
    w = set(vertices)
    return all(u in w or v in w for u, v in g.edges)


def is_minimal_vertex_cover(g: Graph, vertices) -> bool:
    w = set(vertices)
    if not is_vertex_cover(g, w):
        return False
    return all(not is_vertex_cover(g, w - {v}) for v in w)


def _maximum_matching(g: Graph) -> list[tuple[int, int]]:
    """A maximum matching of g, as sorted (u, v) pairs with u < v.

    Edmonds' blossom algorithm (*Paths, trees, and flowers*, 1965), written
    without recursion. A greedy pass gives the starting matching. Then, for
    each free vertex in turn, a BFS grows an alternating tree from it. An
    edge between two outer vertices of the tree closes an odd cycle, which
    is contracted by pointing base[] of its vertices at the cycle's base;
    an edge to a free vertex ends an augmenting path, which is flipped
    along the parent/match links. A free vertex with no augmenting path
    stays free for good, so one pass over the vertices suffices: n
    searches of O(n^2) each, and O(n) memory besides the adjacency lists.
    """
    n = g.n
    adj = [_bits(m) for m in g.masks]
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v], match[u] = u, v
                    break

    for root in range(n):
        if match[root] != -1 or not adj[root]:
            continue
        parent = [-1] * n
        base = list(range(n))
        outer = [False] * n
        outer[root] = True
        queue = deque([root])
        augmented = False
        while queue and not augmented:
            v = queue.popleft()
            for u in adj[v]:
                if base[v] == base[u] or match[v] == u:
                    continue
                if u == root or (match[u] != -1 and parent[match[u]] != -1):
                    # u is outer too: the edge closes an odd cycle. Its base
                    # is the first base on u's path to the root that is also
                    # on v's path.
                    on_path = [False] * n
                    a = v
                    while True:
                        a = base[a]
                        on_path[a] = True
                        if match[a] == -1:
                            break
                        a = parent[match[a]]
                    b = u
                    while not on_path[base[b]]:
                        b = parent[match[base[b]]]
                    top = base[b]
                    in_blossom = [False] * n
                    for x, child in ((v, u), (u, v)):
                        while base[x] != top:
                            in_blossom[base[x]] = True
                            in_blossom[base[match[x]]] = True
                            parent[x] = child
                            child = match[x]
                            x = parent[child]
                    for x in range(n):
                        if in_blossom[base[x]]:
                            base[x] = top
                            if not outer[x]:
                                outer[x] = True
                                queue.append(x)
                elif parent[u] == -1:
                    parent[u] = v
                    if match[u] == -1:
                        while u != -1:
                            w = parent[u]
                            nxt = match[w]
                            match[u], match[w] = w, u
                            u = nxt
                        augmented = True
                        break
                    outer[match[u]] = True
                    queue.append(match[u])
    return [(v, match[v]) for v in range(n) if v < match[v]]


def matching_number(g: Graph) -> int:
    """Largest size of a matching: Edmonds' blossom algorithm, O(n^3) time
    and O(n) memory, exact and iterative (see `_maximum_matching`)."""
    return len(_maximum_matching(g))


def induced_matching_number(g: Graph) -> int:
    """Largest matching whose union of endpoints induces no other edge: the
    largest set `_mis_masks` yields on the conflict graph of E(g) (Cameron
    1989). Edge uv conflicts with every edge at a vertex of N[u] | N[v],
    the OR of the incident-edge masks `inc[w]` over the neighbours w of u
    and of v."""
    edges = g.edges
    if not edges:
        return 0
    inc = [0] * g.n
    for i, (u, v) in enumerate(edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    near = [0] * g.n
    for u, v in edges:
        near[u] |= inc[v]
        near[v] |= inc[u]
    conflict = [(near[u] | near[v]) & ~(1 << i) for i, (u, v) in enumerate(edges)]
    return max(s.bit_count() for s in _mis_masks(conflict))
