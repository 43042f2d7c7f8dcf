"""Graph serialization: graph6 and a plain edge-list text format.

graph6 follows the published format: one printable line, bytes offset by 63,
upper-triangular adjacency bits in column-major order (x01, x02, x12, x03,
...), packed into 6-bit groups padded with zeros. The optional
'>>graph6<<' header is accepted on input and never emitted.

The edge-list format is an 'n m' header line followed by m lines 'u v'.
"""

from __future__ import annotations

from .errors import GraphParseError, ParameterRangeError
from .graphs import Graph


def _triangle_bits(g: Graph):
    for j in range(1, g.n):
        col = g.masks[j]
        for i in range(j):
            yield col >> i & 1


def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    elif n <= 68719476735:
        head = [126, 126] + [(n >> s & 63) + 63 for s in (30, 24, 18, 12, 6, 0)]
    else:
        raise GraphParseError(f"graph6 cannot encode n={n}")
    out = bytearray(head)
    acc = 0
    nbits = 0
    for bit in _triangle_bits(g):
        acc = acc << 1 | bit
        nbits += 1
        if nbits == 6:
            out.append(acc + 63)
            acc = nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return out.decode("ascii")


def from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):].strip()
    if not s:
        raise GraphParseError("empty graph6 input")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise GraphParseError("non-ASCII byte in graph6 input",
                              position=exc.start) from None
    for pos, b in enumerate(data):
        if not 63 <= b <= 126:
            raise GraphParseError(f"byte {b} outside graph6 range", position=pos)
    vals = [b - 63 for b in data]
    if vals[0] < 63:
        n, body = vals[0], vals[1:]
    elif len(vals) >= 2 and vals[1] < 63:
        if len(vals) < 4:
            raise GraphParseError("truncated graph6 size field", position=len(data))
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body = vals[4:]
    else:
        if len(vals) < 8:
            raise GraphParseError("truncated graph6 size field", position=len(data))
        n = 0
        for v in vals[2:8]:
            n = n << 6 | v
        body = vals[8:]
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise GraphParseError(
            f"graph6 body has {len(body)} bytes, expected {(nbits + 5) // 6} for n={n}",
            position=len(data))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if body[idx // 6] >> (5 - idx % 6) & 1:
                edges.append((i, j))
            idx += 1
    if body and body[-1] & ((1 << (-nbits % 6)) - 1):
        raise GraphParseError("nonzero padding bits in graph6 body",
                              position=len(data) - 1)
    return Graph(n, edges)


def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def _is_decimal(s: str) -> bool:
    """Whether s is a non-empty run of the ASCII digits 0-9. str.isdigit
    alone also accepts digits int() rejects, such as superscripts, and
    digits of other scripts, which int() reads as numbers."""
    return s.isascii() and s.isdigit()


def from_edge_list(text: str) -> Graph:
    lines = text.splitlines()
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise GraphParseError("empty edge-list input", position=1)
    lineno, head = rows[0]
    parts = head.split()
    if len(parts) != 2 or not all(_is_decimal(p) for p in parts):
        raise GraphParseError("expected header 'n m'", position=lineno)
    n, m = int(parts[0]), int(parts[1])
    if len(rows) - 1 != m:
        raise GraphParseError(
            f"header declares {m} edges but {len(rows) - 1} edge lines follow",
            position=lineno)
    seen = set()
    edges = []
    for lineno, row in rows[1:]:
        parts = row.split()
        if len(parts) != 2 or not all(_is_decimal(p.removeprefix("-"))
                                      for p in parts):
            raise GraphParseError("expected edge line 'u v'", position=lineno)
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"vertex index out of range 0..{n - 1}",
                                  position=lineno)
        if u == v:
            raise GraphParseError(f"loop at vertex {u}", position=lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphParseError(f"duplicate edge {key}", position=lineno)
        seen.add(key)
        edges.append(key)
    return Graph(n, edges)


def parse_graph(text: str) -> Graph:
    """Parse either format. Lines starting with an ASCII digit are edge-list
    input (digits never occur in graph6 bytes); everything else is graph6."""
    if _is_decimal(text.lstrip()[:1]):
        return from_edge_list(text)
    return from_graph6(text)


def emit_graph(g: Graph, fmt: str = "graph6") -> str:
    if fmt == "graph6":
        return to_graph6(g)
    if fmt == "edge-list":
        return to_edge_list(g)
    raise ParameterRangeError(f"unknown graph format {fmt!r}")
