"""Exact cover and matching invariants.

Minimal vertex covers are enumerated as complements of maximal independent
sets, which in turn come from Bron-Kerbosch-with-pivot clique enumeration on
the complement graph. Everything is exact, desk scale (roughly n <= 40 for
the structured families, n <= 25 in general).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import Graph, _bits


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


def _mis_masks(g: Graph) -> Iterator[int]:
    """Maximal independent sets of g, as bitmasks, in no particular order.

    Bron-Kerbosch with pivoting, run on the complement: cliques of the
    complement are exactly the independent sets of g.
    """
    n = g.n
    if n == 0:
        yield 0
        return
    full = (1 << n) - 1
    comp = [full & ~m & ~(1 << v) for v, m in enumerate(g.masks)]

    def bk(r: int, p: int, x: int):
        if not p and not x:
            yield r
            return
        pivot_pool = p | x
        pivot = (pivot_pool & -pivot_pool).bit_length() - 1
        best = pivot
        best_deg = (comp[pivot] & p).bit_count()
        pool = pivot_pool
        while pool:
            low = pool & -pool
            v = low.bit_length() - 1
            deg = (comp[v] & p).bit_count()
            if deg > best_deg:
                best, best_deg = v, deg
            pool ^= low
        cand = p & ~comp[best]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            yield from bk(r | low, p & comp[v], x & comp[v])
            p &= ~low
            x |= low
            cand ^= low

    yield from bk(0, full, 0)


def maximal_independent_sets(g: Graph) -> list[tuple[int, ...]]:
    """All maximal independent sets, sorted lexicographically."""
    return sorted(_bits(m) for m in _mis_masks(g))


def enumerate_minimal_covers(g: Graph) -> Iterator[tuple[int, ...]]:
    """Yield every minimal vertex cover exactly once, as a sorted vertex
    tuple, in lexicographic order of those tuples."""
    full = (1 << g.n) - 1
    covers = sorted(_bits(full & ~m) for m in _mis_masks(g))
    return iter(covers)


def cover_report(g: Graph) -> CoverReport:
    full = (1 << g.n) - 1
    best_cover = None
    count = 0
    for mis in _mis_masks(g):
        count += 1
        cover = full & ~mis
        key = (-cover.bit_count(), _bits(cover))
        if best_cover is None or key < best_key:
            best_cover, best_key = cover, key
    assert best_cover is not None
    witness_cover = _bits(best_cover)
    witness_independent = _bits(full & ~best_cover)
    return CoverReport(
        tau_max=len(witness_cover),
        i_min=g.n - len(witness_cover),
        witness_cover=witness_cover,
        witness_independent=witness_independent,
        num_minimal_covers=count,
    )


def tau_max(g: Graph) -> int:
    """Size of a maximum minimal vertex cover."""
    return max(g.n - m.bit_count() for m in _mis_masks(g))


def is_vertex_cover(g: Graph, vertices) -> bool:
    w = set(vertices)
    return all(u in w or v in w for u, v in g.edges)


def is_minimal_vertex_cover(g: Graph, vertices) -> bool:
    w = set(vertices)
    if not is_vertex_cover(g, w):
        return False
    return all(not is_vertex_cover(g, w - {v}) for v in w)


def matching_number(g: Graph) -> int:
    """Largest size of a matching, by exact branching with memoization."""
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


def induced_matching_number(g: Graph) -> int:
    """Largest matching whose union of endpoints induces no other edge."""
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
