"""Exact cover and matching invariants.

Minimal vertex covers are the complements of maximal independent sets. An
iterative Bron-Kerbosch search lists those sets for the two listing APIs;
`tau_max` and `cover_report` run the same branch step, `_branch`, but only
count, with each (P, X) state solved once per call. Induced matchings are
the independent sets of the conflict graph on the edges (Cameron, *Induced
matchings*, Discrete Appl. Math. 24, 1989), so the induced matching number
is that graph's independence number, found by a clique-bounded branch and
bound (MCQ, Tomita and Seki, DMTCS 2003). Desk scale: roughly n <= 40 for
the structured families, n <= 25 in general. Each search raises
ResourceLimitError past EDGEIDEALS_MAX_MIS (default DEFAULT_MAX_MIS, a
million): the covers' searches when the graph has more maximal independent
sets, before they start when an induced matching of k edges shows 2^k of
them, and the induced matching search when it expands more nodes.
The matching number comes from Edmonds' blossom algorithm in O(n^3) time
and O(n) memory, iterative, so it is exact at any n.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ResourceLimitError, resolve_cap
from .graphs import Graph, _bits, _pivot

# The listing search on tens of vertices lists about 250k sets a second, so
# this stops it after about 4 s. The counting search merges equal states and
# passes the cap far sooner: on path_graph(60) in about a millisecond. No
# benchmark input has more than 82,047 maximal independent sets.
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


def _too_many_sets(cap: int) -> ResourceLimitError:
    return ResourceLimitError(
        f"maximal independent set search passed {cap} sets; "
        f"set EDGEIDEALS_MAX_MIS to override")


def _mis_cap(masks: Sequence[int]) -> int:
    """The cap on the maximal independent sets of the graph with adjacency
    masks `masks`, the integer in EDGEIDEALS_MAX_MIS or else
    DEFAULT_MAX_MIS, checked up front against a greedy induced matching.

    One end of each of k edges of an induced matching is an independent
    set, and two of the 2^k choices extend to different maximal independent
    sets (for some matched uv one holds u, the other v), so
    ResourceLimitError is raised at once when k >= 1 and 2^k > cap. The
    matching is greedy: an edge uv of free vertices, after which no vertex
    of N[u] | N[v] is free; at most n mask steps in all. As k <= n/2 it
    cannot pass the cap when n < 2 * cap.bit_length(), and is skipped.
    """
    cap = resolve_cap("EDGEIDEALS_MAX_MIS", DEFAULT_MAX_MIS)
    if len(masks) >= 2 * cap.bit_length():
        free = (1 << len(masks)) - 1
        k = 0
        while free:
            low = free & -free
            u = low.bit_length() - 1
            free ^= low
            near = masks[u] & free
            if near:
                free &= ~(masks[u] | masks[(near & -near).bit_length() - 1])
                k += 1
                if 1 << k > cap:
                    raise _too_many_sets(cap)
    return cap


def _branch(comp: Sequence[int], p: int, x: int) -> int:
    """The vertices a Bron-Kerbosch state (P, X) branches on, P & N[u] for
    its pivot u, as a mask; `comp` holds the complement's adjacency masks.
    u is the least vertex of P | X with the most vertices of P outside
    N[u]. That is all of P only when u is in X with no neighbour in P;
    then no maximal independent set lies below the state, the scan stops
    at u, and the answer is 0."""
    in_p = p.bit_count()
    pool = p | x
    best_out = -1
    while pool:
        low = pool & -pool
        v = low.bit_length() - 1
        out = (comp[v] & p).bit_count()
        if out > best_out:
            if out == in_p:
                return 0
            best, best_out = v, out
        pool ^= low
    return p & ~comp[best]


def _mis_masks(masks: Sequence[int]) -> Iterator[int]:
    """Maximal independent sets of the graph with adjacency masks `masks`,
    as bitmasks, in no particular order, for the two listing APIs.

    Bron-Kerbosch with pivoting on the complement, whose cliques are the
    independent sets, on an explicit stack of (r, p, x) frames. Isolated
    vertices lie in every maximal independent set, so they start in r.
    Each state branches on `_branch`'s vertices.

    Raises ResourceLimitError when there are more sets than `_mis_cap`.
    """
    cap = _mis_cap(masks)
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
                raise _too_many_sets(cap)
            yield r
            continue
        cand = _branch(comp, p, x)
        children = []
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            children.append((r | low, p & comp[v], x & comp[v]))
            p &= ~low
            x |= low
            cand ^= low
        stack.extend(reversed(children))


def _mis_summary(masks: Sequence[int]) -> tuple[int, int, int]:
    """(count, least size, witness mask) of the maximal independent sets
    of the graph with adjacency masks `masks`, without listing them.

    The branching is `_branch`'s. Every set below a state is the chosen
    prefix plus a set that depends on (P, X) alone, so each state's
    summary is computed once per call and memoized, on an explicit stack
    of open frames. The witness is of least size and, of two such, the
    one lacking the least vertex where they differ, so its complement is
    the lexicographically least largest minimal cover; the comparison
    ignores the shared prefix, so it carries from child to parent.
    Isolated vertices lie in every set and are taken up front.

    Raises ResourceLimitError, before the search when `_mis_cap` finds an
    induced matching that proves more sets than the cap, else as soon as
    one state has more sets than the cap: either happens exactly when the
    graph has more sets than the cap.
    """
    cap = _mis_cap(masks)
    n = len(masks)
    full = (1 << n) - 1
    isolated = sum(1 << v for v, m in enumerate(masks) if not m)
    p = full & ~isolated
    if not p:  # one set, all of the vertices
        if cap < 1:
            raise _too_many_sets(cap)
        return 1, n, full
    comp = [full & ~m & ~(1 << v) for v, m in enumerate(masks)]
    memo = {}
    stack = []
    # The open frame is in the f* locals: its memo key X << n | P, the P
    # and X its next child is cut from, the branch vertices left and its
    # summary so far. The stack holds the frames below it, each with the
    # bit of the child it waits on.
    fkey, fp, fx, fcand = p, p, 0, _branch(comp, p, 0)
    fcount, fsize, fwit = 0, n + 1, 0
    while True:
        if fcand:
            low = fcand & -fcand
            fcand ^= low
            c = comp[low.bit_length() - 1]
            p, x = fp & c, fx & c
            fp ^= low
            fx |= low
            if not p:
                if x:
                    continue
                count, size, wit = 1, 0, 0
            else:
                key = x << n | p
                r = memo.get(key)
                if r is None:
                    cand = _branch(comp, p, x)
                    if not cand:
                        memo[key] = (0, 0, 0)
                        continue
                    stack.append((fkey, fp, fx, fcand, fcount, fsize, fwit, low))
                    fkey, fp, fx, fcand = key, p, x, cand
                    fcount, fsize, fwit = 0, n + 1, 0
                    continue
                count, size, wit = r
                if not count:
                    continue
        else:
            memo[fkey] = count, size, wit = fcount, fsize, fwit
            if not stack:
                return count, size + isolated.bit_count(), wit | isolated
            fkey, fp, fx, fcand, fcount, fsize, fwit, low = stack.pop()
            if not count:
                continue
        # one more child, of bit low: its sets add low to the child's
        fcount += count
        if fcount > cap:
            raise _too_many_sets(cap)
        size += 1
        wit |= low
        if size < fsize:
            fsize, fwit = size, wit
        elif size == fsize:
            d = wit ^ fwit
            if not wit & d & -d:
                fwit = wit


def _independence_number(masks: Sequence[int]) -> int:
    """Size of a largest independent set of the graph with adjacency masks
    `masks`: a depth-first branch and bound on an explicit stack, MCQ
    (Tomita and Seki, DMTCS 2003) run on the complement graph.

    A node holds an independent set R and its candidates P. P is split
    greedily into cliques of the graph, each grown from its least vertex;
    an independent set takes at most one vertex of a clique. The vertex v
    of the k-th clique branches on R + v with the candidates ordered
    before v and not adjacent to it, which bounds that branch by
    |R| + k; a branch that cannot beat the best size found is dropped.
    Isolated vertices lie in every largest set and are counted up front.

    Raises ResourceLimitError once the search has expanded more nodes
    than the cap, the integer in EDGEIDEALS_MAX_MIS or else DEFAULT_MAX_MIS.
    """
    cap = resolve_cap("EDGEIDEALS_MAX_MIS", DEFAULT_MAX_MIS)
    left = cap
    full = (1 << len(masks)) - 1
    comp = [full & ~m & ~(1 << v) for v, m in enumerate(masks)]
    isolated = sum(1 << v for v, m in enumerate(masks) if not m)
    best = 0
    stack = [(1, 0, full & ~isolated)]
    while stack:
        bound, size, p = stack.pop()
        if bound <= best:
            continue
        left -= 1
        if left < 0:
            raise ResourceLimitError(
                f"independent set search passed {cap} nodes; "
                f"set EDGEIDEALS_MAX_MIS to override")
        if size > best:
            best = size
        bound = size
        before = 0
        while p:
            bound += 1
            avail = p
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                avail &= masks[v]
                p ^= low
                if bound > best:
                    stack.append((bound, size + 1, before & comp[v]))
                before |= low
    return best + isolated.bit_count()


def _greedy_independent(masks: Sequence[int]) -> int:
    """A maximal independent set of the graph with adjacency masks
    `masks`, as a bitmask: take `_pivot`'s vertex, the one with the most
    neighbours left, the least one on ties, and drop its closed
    neighbourhood; once no edge is left, the vertices left join the set.
    Its complement is a minimal cover, so n minus its size is a lower
    bound on tau_max."""
    left = (1 << len(masks)) - 1
    chosen = 0
    while True:
        live, x, _ = _pivot(masks, left)
        if not live:
            return chosen | left
        chosen |= x
        left &= ~(masks[x.bit_length() - 1] | x)


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
    count, size, wit = _mis_summary(g.masks)
    return CoverReport(
        tau_max=g.n - size,
        i_min=size,
        witness_cover=_bits((1 << g.n) - 1 & ~wit),
        witness_independent=_bits(wit),
        num_minimal_covers=count,
    )


def tau_max(g: Graph) -> int:
    """Size of a maximum minimal vertex cover."""
    return g.n - _mis_summary(g.masks)[1]


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
    independence number of the conflict graph of E(g) (Cameron 1989), from
    `_independence_number`'s branch and bound. Edge uv conflicts with every
    edge at a vertex of N[u] | N[v], the OR of the incident-edge masks
    `inc[w]` over the neighbours w of u and of v."""
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
    return _independence_number(conflict)
