"""Canonical forms, isomorph-free enumeration, random graphs, family
recognition, and the theorem-verification harnesses.

The canonical form of a graph is the minimum, over all vertex relabelings,
of the upper-triangular adjacency bitstring read in graph6 column-major
order (bit for (0,1) most significant). It is computed by a depth-first
placement search with prefix pruning, twin skipping, and a
degree-refinement seed ordering; no third-party canonical-labeling tool is
involved.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Iterator

from . import betti, covers, gio, spectrum
from .errors import ParameterRangeError, ResourceLimitError, resolve_cap
from .graphs import Graph, is_chordal, is_gap_free, isolated_vertices, is_connected
from .homology import GF2

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


def _refine(cells: list[list[int]], masks: tuple[int, ...]) -> list[list[int]]:
    """Equitable refinement of an ordered partition: split every cell by
    neighbor counts into every cell, sub-cells ordered by count, until
    stable. Deterministic and relabeling-invariant."""
    while True:
        changed = False
        for smask in [sum(1 << v for v in c) for c in cells]:
            new_cells = []
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                buckets: dict[int, list[int]] = {}
                for v in cell:
                    buckets.setdefault((masks[v] & smask).bit_count(),
                                       []).append(v)
                if len(buckets) == 1:
                    new_cells.append(cell)
                else:
                    changed = True
                    for k in sorted(buckets):
                        new_cells.append(buckets[k])
            cells = new_cells
            if changed:
                break
        if not changed:
            return cells


def canonical_bits(masks: tuple[int, ...], n: int) -> int:
    """Minimum adjacency bitstring over all vertex relabelings, by
    individualization-refinement.

    Each search node holds an equitable ordered partition; the first
    non-singleton cell that is not a class of mutual twins is the target,
    and each of its members is individualized in turn (members in the same
    orbit of an already-discovered automorphism are skipped). When every
    non-singleton cell consists of mutual twins the partition is effectively
    discrete: any ordering inside a twin cell yields the same bitstring.
    Leaves emit the packed upper triangle; equal-to-best leaves contribute
    automorphisms that feed the orbit pruning.
    """
    if n <= 1:
        return 0
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
            elif s == best and len(auts) < 128:
                perm = [0] * n
                for i in range(n):
                    perm[best_order[i]] = order[i]
                tperm = tuple(perm)
                if tperm not in auts:
                    auts.append(tperm)
            return
        stab = [a for a in auts if all(a[x] == x for x in fixed)]
        done: set[int] = set()
        for v in cells[target]:
            if v in done:
                continue
            done |= orbit(v, stab)
            rest = [u for u in cells[target] if u != v]
            new_cells = cells[:target] + [[v], rest] + cells[target + 1:]
            node(_refine(new_cells, masks), fixed + (v,))
            stab = [a for a in auts if all(a[x] == x for x in fixed)]

    node(_refine([list(range(n))], masks), ())
    assert best is not None
    return best


def canonical_form(g: Graph) -> CanonicalForm:
    if g.n > CANONICAL_MAX_N:
        raise ResourceLimitError(
            f"canonical_form supports n <= {CANONICAL_MAX_N}, got {g.n}")
    return CanonicalForm(g.n, canonical_bits(g.masks, g.n))


# ---------------------------------------------------------------------------
# Isomorph-free enumeration
# ---------------------------------------------------------------------------

_ATLAS_CACHE: dict[int, list[Graph]] = {0: [Graph(0)]}


def _atlas_level(n: int) -> list[Graph]:
    """One representative per isomorphism class on exactly n vertices,
    grown by vertex augmentation from the (n-1)-level with canonical-form
    deduplication. Cached per process."""
    cached = _ATLAS_CACHE.get(n)
    if cached is not None:
        return cached
    parents = _atlas_level(n - 1)
    seen: set[int] = set()
    level: list[Graph] = []
    new = n - 1
    for parent in parents:
        base = parent.edges
        for attach in range(1 << new):
            edges = list(base)
            m = attach
            while m:
                low = m & -m
                edges.append((low.bit_length() - 1, new))
                m ^= low
            child = Graph(n, edges)
            bits = canonical_bits(child.masks, n)
            if bits not in seen:
                seen.add(bits)
                level.append(child)
    _ATLAS_CACHE[n] = level
    return level


def enumerate_graphs(n: int, filter: str = "all",
                     max_n: int | None = None) -> Iterator[Graph]:
    """Exactly one representative per isomorphism class on n vertices.

    filter: 'all', 'no-isolated' (no isolated vertices), or 'connected'.
    """
    limit = resolve_cap(max_n, "EDGEIDEALS_MAX_ENUM_N", ENUMERATE_MAX_N)
    if n > limit:
        raise ResourceLimitError(
            f"enumerate_graphs supports n <= {limit}, got {n}")
    if filter not in ("all", "no-isolated", "connected"):
        raise ParameterRangeError(f"unknown filter {filter!r}")
    for g in _atlas_level(n):
        if filter == "no-isolated" and isolated_vertices(g):
            continue
        if filter == "connected" and not is_connected(g):
            continue
        yield g


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
        return json.dumps({"n": self.n, "classes_visited": self.classes_visited,
                           "violations": list(self.violations),
                           "equality_class": list(self.equality_class)})


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
    tau >= ceil(2*sqrt(n) - 2) iff (tau + 2)^2 >= 4n."""
    if not exhaustive and (samples is None or seed is None):
        raise ParameterRangeError("sampled mode needs samples and seed")
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
        return json.dumps({"n": self.n, "classes_visited": self.classes_visited,
                           "equality_class": list(self.equality_class),
                           "recognized_tags": list(self.recognized_tags),
                           "mismatches": list(self.mismatches)})


def verify_classification(n: int) -> ClassificationReport:
    """For perfect squares n (4 or 9 at desk scale): tau_max equals
    2*sqrt(n) - 2 exactly for the recognized families, in both directions."""
    s = math.isqrt(n)
    if s * s != n or n not in (4, 9):
        raise ParameterRangeError(
            f"classification check supports n in {{4, 9}}, got {n}")
    target = 2 * s - 2
    visited = 0
    equality = []
    tags = []
    mismatches = []
    for g in enumerate_graphs(n, "no-isolated"):
        visited += 1
        tau = covers.tau_max(g)
        tag = recognize_family(g)
        if tau == target:
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
        return json.dumps({"n": self.n, "p": self.p, "tau_max": self.tau_max,
                           "chordal": self.chordal, "gap_free": self.gap_free,
                           "pd": self.pd, "reg": self.reg, "ok": self.ok})


def verify_spectrum(n_max: int, field=None,
                    homology_up_to: int = 14) -> list[SpectrumCheck]:
    """Build every legal (n, p) spectrum graph for n = 2..n_max and check
    tau_max = p, chordality and gap-freeness; for n <= homology_up_to also
    check (pd, reg) = (p, 1) through the subset-homology engine."""
    field = field or GF2
    out = []
    for n in range(2, n_max + 1):
        for p in range(spectrum.cover_lower_bound(n), n):
            g = spectrum.build_spectrum_graph(n, p)
            assert g.n == n
            pd = reg = None
            if n <= homology_up_to:
                pd, reg = betti.pd_and_reg(g, field)
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


PDR_SPECTRUM_MAX_N = 8


def pdr_spectrum(n: int, field=None) -> PdrSpectrumReport:
    """Compute (pd, reg) for every isolate-free isomorphism class on n
    vertices; the witness kept per pair is the first class encountered in
    enumeration order."""
    field = field or GF2
    if n > PDR_SPECTRUM_MAX_N:
        raise ResourceLimitError(
            f"pdr_spectrum supports n <= {PDR_SPECTRUM_MAX_N}, got {n}")
    found: dict[tuple[int, int], CanonicalForm] = {}
    visited = 0
    for g in enumerate_graphs(n, "no-isolated"):
        visited += 1
        pr = betti.pd_and_reg(g, field)
        if pr not in found:
            found[pr] = CanonicalForm(n, canonical_bits(g.masks, n))
    points = tuple(PdrPoint(p, r, w) for (p, r), w in sorted(found.items()))
    return PdrSpectrumReport(n=n, characteristic=field.characteristic,
                             points=points, classes_visited=visited)
