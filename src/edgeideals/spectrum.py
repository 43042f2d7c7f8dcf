"""Constructive realizations: given target invariants, build a graph.

`build_spectrum_graph(n, p)` produces an n-vertex chordal, gap-free graph
whose maximum minimal cover (and hence projective dimension) is exactly p,
for every integer p between the global lower bound and n-1.
`build_pdr_graph(n, p, r)` extends this to regularity r by adding disjoint
edges. All range checks use exact integer arithmetic; no floating-point
square roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterRangeError
from .graphs import Graph


def ceil_sqrt(x: int) -> int:
    """Smallest integer s with s*s >= x (x >= 0)."""
    if x <= 0:
        return 0
    return 1 + math.isqrt(x - 1)


def cover_lower_bound(n: int) -> int:
    """ceil(2*sqrt(n) - 2), computed exactly: the least integer b with
    (b + 2)^2 >= 4n."""
    return ceil_sqrt(4 * n) - 2


@dataclass(frozen=True)
class SpectrumPlan:
    """Audit record of the arithmetic behind one constructed graph.

    The graph is a clique of `clique_size` vertices; clique vertex i first
    receives group_size - 1 private leaves, then an extra leaf block of
    extra_block_sizes[i] more. group_budget = group_size + extra_cap, and
    (clique_size - 1) + (group_size - 1) + extra_cap = p.
    """

    n: int
    p: int
    clique_size: int        # ceil(p/2) + 1
    group_budget: int       # floor(p/2) + 1
    group_size: int         # largest t with (clique_size-1)*t + group_budget <= n
    extra_cap: int          # group_budget - group_size
    extra_block_sizes: tuple[int, ...]

    def validate(self) -> None:
        s, T, t, a = (self.clique_size, self.group_budget, self.group_size,
                      self.extra_cap)
        n, p = self.n, self.p
        assert s + T == p + 2
        assert s * T == (p + 2) ** 2 // 4 and s * T >= n
        assert 1 <= t <= T and a == T - t >= 0
        assert (s - 1) * t + T <= n < (s - 1) * (t + 1) + T or t == T
        assert (s - 1) + (t - 1) + a == p
        b = self.extra_block_sizes
        assert len(b) == s and b[0] == a and all(0 <= x <= a for x in b)
        assert sum(b) == n - s * t


def plan_spectrum(n: int, p: int) -> SpectrumPlan:
    """Block arithmetic for the (n, p) construction; requires
    cover_lower_bound(n) <= p <= n - 2 (p = n - 1 is the star, handled by
    build_spectrum_graph directly)."""
    if n < 2:
        raise ParameterRangeError(f"need n >= 2, got {n}")
    low = cover_lower_bound(n)
    if not low <= p <= n - 2:
        raise ParameterRangeError(
            f"p={p} outside the legal interval [{low}, {n - 2}] for n={n}")
    s = p // 2 + 1 + (p & 1)          # ceil(p/2) + 1
    t_budget = p // 2 + 1             # floor(p/2) + 1
    t = min(t_budget, (n - t_budget) // (s - 1))
    a = t_budget - t
    remaining = n - s * t - a
    sizes = [a]
    for _ in range(s - 1):
        take = min(a, remaining)
        sizes.append(take)
        remaining -= take
    plan = SpectrumPlan(n=n, p=p, clique_size=s, group_budget=t_budget,
                        group_size=t, extra_cap=a,
                        extra_block_sizes=tuple(sizes))
    plan.validate()
    return plan


def build_spectrum_graph(n: int, p: int) -> Graph:
    """n-vertex chordal gap-free graph with maximum minimal cover exactly p,
    for cover_lower_bound(n) <= p <= n - 1.

    Labeling: clique vertices 0..s-1, then the per-vertex leaf groups in
    clique order, then the extra leaf blocks in clique order. p = n - 1
    yields the star K_{1,n-1} (center 0).
    """
    if n < 2:
        raise ParameterRangeError(f"need n >= 2, got {n}")
    low = cover_lower_bound(n)
    if not low <= p <= n - 1:
        raise ParameterRangeError(
            f"p={p} outside the legal interval [{low}, {n - 1}] for n={n}")
    if p == n - 1:
        return Graph(n, [(0, v) for v in range(1, n)])
    plan = plan_spectrum(n, p)
    s, t = plan.clique_size, plan.group_size
    edges = [(i, j) for i in range(s) for j in range(i + 1, s)]
    nxt = s
    for i in range(s):
        for _ in range(t - 1):
            edges.append((i, nxt))
            nxt += 1
    for i, size in enumerate(plan.extra_block_sizes):
        for _ in range(size):
            edges.append((i, nxt))
            nxt += 1
    assert nxt == n
    return Graph(n, edges)


def pdr_range(n: int, r: int) -> tuple[int, int]:
    """Legal p interval for build_pdr_graph at this (n, r): the exact-real
    lower bound 2*sqrt(n - 2(r-1)) + r - 3 and the upper bound n - r."""
    if r < 1 or 2 * r > n:
        raise ParameterRangeError(f"need 1 <= r <= n/2, got r={r}, n={n}")
    reduced = n - 2 * (r - 1)
    low = cover_lower_bound(reduced) + (r - 1)
    return low, n - r


def build_pdr_graph(n: int, p: int, r: int) -> Graph:
    """Graph on n vertices with projective dimension p and regularity r:
    the (n - 2(r-1), p - (r-1)) spectrum graph plus r - 1 disjoint edges,
    labeled as consecutive pairs after it."""
    low, high = pdr_range(n, r)
    if not low <= p <= high:
        raise ParameterRangeError(
            f"p={p} outside the legal interval [{low}, {high}] for n={n}, r={r}")
    m = n - 2 * (r - 1)
    g = build_spectrum_graph(m, p - (r - 1))
    return Graph(n, g.edges + tuple((v, v + 1) for v in range(m, n, 2)))
