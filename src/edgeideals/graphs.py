"""Immutable simple graphs on vertex labels 0..n-1, with structural
predicates and the complement.

A vertex set is an int mask in the graph's own labels (bit v for vertex
v), here and in every layer above: the predicates, `_components`,
`_pivot` and the Hochster sum in `betti` all read `Graph.masks` directly,
so none of them builds a relabeled induced subgraph to work on.

All functions here are pure; `Graph` instances never change after
construction and are safe to share across threads.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .errors import ParameterRangeError


class Graph:
    """A finite simple graph: no loops, no multiple edges.

    Vertices are the dense integers 0..n-1. Adjacency is stored as integer
    bitmasks (`masks`), the one vertex-set format of the package;
    `neighbors` converts one of them to a frozenset for callers that want
    a set.
    """

    __slots__ = ("_n", "_masks", "_edges", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ParameterRangeError(f"vertex count must be >= 0, got {n}")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterRangeError(
                    f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ParameterRangeError(f"loop at vertex {u} not allowed")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._n = n
        self._masks = tuple(masks)
        self._edges: tuple[tuple[int, int], ...] | None = None
        self._hash: int | None = None

    @classmethod
    def _from_masks(cls, masks: tuple[int, ...]) -> Graph:
        """The graph with these adjacency masks, taken as given: symmetric
        and loop-free, as the masks of another Graph are. Nothing is
        cached on it yet."""
        g = cls.__new__(cls)
        g._n = len(masks)
        g._masks = masks
        g._edges = None
        g._hash = None
        return g

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(m.bit_count() for m in self._masks) // 2

    @property
    def masks(self) -> tuple[int, ...]:
        """Adjacency bitmasks: bit v of masks[u] is set iff {u,v} is an edge."""
        return self._masks

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        if self._edges is None:
            out = []
            for u in range(self._n):
                rest = self._masks[u] >> (u + 1)
                v = u + 1
                while rest:
                    if rest & 1:
                        out.append((u, v))
                    rest >>= 1
                    v += 1
            self._edges = tuple(out)
        return self._edges

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(_bits(self._masks[v]))

    def degree(self, v: int) -> int:
        return self._masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._masks[u] >> v & 1)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((m.bit_count() for m in self._masks), reverse=True))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._masks == other._masks

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._n, self._masks))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.m})"


def _bits(mask: int) -> tuple[int, ...]:
    """Indices of set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph._from_masks(tuple(full ^ m ^ (1 << v)
                                   for v, m in enumerate(g.masks)))


def isolated_vertices(g: Graph) -> frozenset[int]:
    return frozenset(v for v in range(g.n) if g.masks[v] == 0)


def _components(masks: Sequence[int], w: int) -> list[int]:
    """Vertex masks of the connected components of the subgraph induced on
    the vertex mask w, in order of their least vertex."""
    out = []
    while w:
        seen = frontier = w & -w
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= masks[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & w & ~seen
            seen |= frontier
        out.append(seen)
        w ^= seen
    return out


def _pivot(masks: Sequence[int], w: int) -> tuple[int, int, int]:
    """(live, x, deg) for the vertex mask w: live holds the vertices with a
    neighbour in W, and x, a one-bit mask, is the least vertex of the
    largest degree deg in G[W] (x = deg = 0 when W has no edge)."""
    live = x = deg = 0
    m = w
    while m:
        low = m & -m
        d = (masks[low.bit_length() - 1] & w).bit_count()
        if d:
            live |= low
            if d > deg:
                deg, x = d, low
        m ^= low
    return live, x, deg


def is_connected(g: Graph) -> bool:
    return len(_components(g.masks, (1 << g.n) - 1)) <= 1


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in _bits(g.masks[u]):
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def is_gap_free(g: Graph) -> bool:
    """True iff every two disjoint edges are joined by a third edge.

    Vacuously true for graphs with fewer than two edges. For graphs with at
    least one edge this is equivalent to induced_matching_number(g) <= 1.
    """
    edges = g.edges
    masks = g.masks
    for i, (a, b) in enumerate(edges):
        reach = masks[a] | masks[b]
        pair = (1 << a) | (1 << b)
        for c, d in edges[i + 1:]:
            if pair & ((1 << c) | (1 << d)):
                continue
            if not (reach >> c & 1 or reach >> d & 1):
                return False
    return True


def _chordal_separator(masks: Sequence[int]) -> int | None:
    """None when the graph with these adjacency masks is not chordal, else
    the size of its least minimal separator: 0 when it is disconnected,
    n - 1 when it is complete (it has none then).

    Maximum cardinality search (Tarjan and Yannakakis, SIAM J. Comput. 13,
    1984): visit next an unvisited vertex with the most visited neighbours,
    popped from a bucket queue keyed by that count. Ties may break any
    way, as every such order certifies. The reverse visit order is a
    perfect elimination ordering iff the graph is chordal, and it is one
    iff for each vertex v, with f the last visited of the neighbours
    visited before v, the others of them are neighbours of f: one mask
    test per vertex, O(n + m) steps in all. The minimal separators of a
    chordal graph are then the sets of neighbours visited before v, for
    each v whose count of them does not exceed that of the vertex visited
    just before it (Blair and Peyton, IMA Vol. Math. Appl. 56, 1993)."""
    n = len(masks)
    least = n - 1
    weight = [0] * n
    last = [-1] * n  # the last visited neighbour so far
    buckets = [list(range(n - 1, -1, -1))]  # pops the least label first
    top = 0
    prev = -1  # the count of the vertex visited before; none for the first
    visited = 0
    for _ in range(n):
        while True:
            bucket = buckets[top]
            if not bucket:
                top -= 1
                continue
            v = bucket.pop()
            if weight[v] == top:  # a vertex's entries at lower counts are stale
                break
        f = last[v]
        if f >= 0 and masks[v] & visited & ~masks[f] != 1 << f:
            return None
        if top <= prev:
            least = min(least, top)
        prev = top
        visited |= 1 << v
        for u in _bits(masks[v] & ~visited):
            last[u] = v
            w = weight[u] = weight[u] + 1
            if w > top:
                top = w
                if w == len(buckets):
                    buckets.append([])
            buckets[w].append(u)
    return least


def is_chordal(g: Graph) -> bool:
    """Chordality by maximum cardinality search (see _chordal_separator):
    every cycle of four or more vertices has a chord."""
    return _chordal_separator(g.masks) is not None
