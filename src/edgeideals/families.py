"""Named graph families and the family-spec plumbing used by the CLI.

Every constructor documents its vertex labeling so downstream witnesses
(covers, Betti witnesses, canonical forms) are reproducible.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from . import spectrum
from .errors import ParameterRangeError
from .graphs import Graph


def complete_graph(s: int) -> Graph:
    if s < 1:
        raise ParameterRangeError(f"complete graph needs s >= 1, got {s}")
    return Graph(s, [(i, j) for i in range(s) for j in range(i + 1, s)])


def complete_bipartite(r: int, s: int) -> Graph:
    """K_{r,s}: the first r vertices form one side, the last s the other."""
    if r < 1 or s < 1:
        raise ParameterRangeError(
            f"complete bipartite graph needs r, s >= 1, got ({r}, {s})")
    return Graph(r + s, [(i, r + j) for i in range(r) for j in range(s)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ParameterRangeError(f"cycle needs length >= 3, got {k}")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def path_graph(length: int) -> Graph:
    """Path with `length` edges on length+1 vertices 0-1-...-length."""
    if length < 0:
        raise ParameterRangeError(f"path length must be >= 0, got {length}")
    return Graph(length + 1, [(i, i + 1) for i in range(length)])


def two_k2() -> Graph:
    """Two disjoint edges: {0,1} and {2,3}."""
    return Graph(4, [(0, 1), (2, 3)])


def pendant_clique(s: int) -> Graph:
    """Complete graph K_s where every clique vertex additionally gets its own
    set of s-1 leaves, the leaf sets pairwise disjoint.

    Labeling: clique vertices 0..s-1 first, then the leaf block of clique
    vertex i occupies s + i*(s-1) .. s + (i+1)*(s-1) - 1. The result has s^2
    vertices and s(s-1)/2 + s(s-1) edges; s = 1 degenerates to a single
    vertex.
    """
    if s < 1:
        raise ParameterRangeError(f"pendant clique needs s >= 1, got {s}")
    edges = [(i, j) for i in range(s) for j in range(i + 1, s)]
    nxt = s
    for i in range(s):
        for _ in range(s - 1):
            edges.append((i, nxt))
            nxt += 1
    return Graph(s * s, edges)


def extremal_pendant_clique(n: int) -> Graph:
    """The n-vertex graph whose largest minimal vertex cover meets the
    global lower bound exactly; chordal and gap-free for every n >= 2.

    With a = floor(sqrt(n)): for n = a^2 this is pendant_clique(a). For
    a^2 < n <= a^2 + a, one extra leaf is attached to each of the first
    n - a^2 clique vertices (new leaves labeled a^2..n-1, in clique-vertex
    order). For a^2 + a < n < (a+1)^2, the same is done on top of the
    n = a^2 + a graph (second leaf round labeled a^2+a..n-1).
    """
    if n < 2:
        raise ParameterRangeError(f"extremal pendant clique needs n >= 2, got {n}")
    a = math.isqrt(n)
    g = pendant_clique(a)
    edges = list(g.edges)
    first_round = min(n, a * a + a) - a * a
    for i in range(first_round):
        edges.append((i, a * a + i))
    for i in range(n - a * a - a):
        edges.append((i, a * a + a + i))
    return Graph(n, edges)


# kind -> (number of parameters, builder)
_FAMILIES = {
    "hs": (1, pendant_clique), "gn": (1, extremal_pendant_clique),
    "k": (1, complete_graph), "kb": (2, complete_bipartite),
    "c": (1, cycle_graph), "p": (1, path_graph), "2k2": (0, two_k2),
    "spectrum": (2, spectrum.build_spectrum_graph),
    "pdr": (3, spectrum.build_pdr_graph),
}


@dataclass(frozen=True)
class FamilySpec:
    """A named family together with its numeric parameters; the kind and
    the number of parameters are checked at construction."""

    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise ParameterRangeError(f"unknown family kind {self.kind!r}")
        arity = _FAMILIES[self.kind][0]
        if len(self.params) != arity:
            raise ParameterRangeError(
                f"family {self.kind!r} takes {arity} "
                f"parameter(s), got {len(self.params)}")

    def __str__(self) -> str:
        return self.kind + (":" + ",".join(map(str, self.params))
                            if self.params else "")


def build_family(spec: FamilySpec) -> Graph:
    return _FAMILIES[spec.kind][1](*spec.params)


_FAMILY_RE = re.compile(r"^([a-z2][a-z0-9]*?)[ :]?(\d+(?:[ ,]\d+)*)?$")


def parse_family(text: str) -> FamilySpec:
    """Parse a compact family spec like 'c4', 'hs:5', 'kb:3,3', '2k2',
    'spectrum:10,5' or 'pdr:8,5,2'."""
    s = text.strip().lower()
    if s == "2k2":
        return FamilySpec("2k2")
    m = _FAMILY_RE.match(s)
    if not m or m.group(2) is None:
        raise ParameterRangeError(f"cannot parse family spec {text!r}")
    kind = m.group(1)
    params = tuple(int(x) for x in re.split(r"[ ,]", m.group(2)))
    if kind == "k" and len(params) == 2:
        kind = "kb"
    return FamilySpec(kind, params)
