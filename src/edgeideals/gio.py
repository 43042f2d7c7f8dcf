"""Graph serialization: graph6 and a plain edge-list text format.

graph6 follows the published format: one printable line, bytes offset by 63,
upper-triangular adjacency bits in column-major order (x01, x02, x12, x03,
...), packed into 6-bit groups padded with zeros. The optional
'>>graph6<<' header is accepted on input and never emitted.

The edge-list format is an 'n m' header line followed by m lines 'u v'.
"""

from __future__ import annotations

import re

from .errors import GraphParseError, ParameterRangeError
from .graphs import Graph


# bytes in the graph6 range 63..126, '?' to '~'
_OUT_OF_RANGE = re.compile(rb"[^?-~]")
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")
_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _pack6(bits: str) -> bytes:
    """graph6 body bytes for a string of '0'/'1' bits: six bits a byte,
    the last one padded with zeros, each byte offset by 63. The six bit
    positions of a byte are taken as six strided slices, each read as one
    int whose bytes are 0 or 1, so no step runs per bit."""
    k = -(-len(bits) // 6)
    bits = bits.ljust(6 * k, "0")
    acc = int.from_bytes(b"?" * k, "big")
    for r in range(6):
        slot = bits[r::6].encode("ascii").translate(_BIT_VALUES)
        acc += int.from_bytes(slot, "big") << (5 - r)
    return acc.to_bytes(k, "big")


def _unpack6(body: bytes) -> str:
    """The '0'/'1' bits of graph6 body bytes, six a byte, inverse to
    _pack6: bit r of every byte is one shift and mask of the body read as
    one int, written to every sixth place at once."""
    k = len(body)
    value = int.from_bytes(body, "big") - int.from_bytes(b"?" * k, "big")
    ones = int.from_bytes(b"\1" * k, "big")
    out = bytearray(6 * k)
    for r in range(6):
        out[r::6] = (value >> (5 - r) & ones).to_bytes(k, "big")
    return out.translate(_BIT_DIGITS).decode("ascii")


def _size_field(chunk: bytes) -> int:
    """n from the six-bit digits of a long graph6 size field."""
    n = 0
    for b in chunk:
        n = n << 6 | b - 63
    return n


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
    # column j holds x_0j .. x_(j-1)j, least row first: the low j bits of
    # masks[j], written out and reversed
    bits = "".join(format(g.masks[j] & ((1 << j) - 1), f"0{j}b")[::-1]
                   for j in range(1, n))
    return (bytes(head) + _pack6(bits)).decode("ascii")


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
    if bad := _OUT_OF_RANGE.search(data):
        raise GraphParseError(f"byte {data[bad.start()]} outside graph6 range",
                              position=bad.start())
    if data[0] < 126:
        n, start = data[0] - 63, 1
    elif len(data) >= 2 and data[1] < 126:
        if len(data) < 4:
            raise GraphParseError("truncated graph6 size field", position=len(data))
        n, start = _size_field(data[1:4]), 4
    else:
        if len(data) < 8:
            raise GraphParseError("truncated graph6 size field", position=len(data))
        n, start = _size_field(data[2:8]), 8
    body = data[start:]
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise GraphParseError(
            f"graph6 body has {len(body)} bytes, expected {(nbits + 5) // 6} for n={n}",
            position=len(data))
    if body and (body[-1] - 63) & ((1 << (-nbits % 6)) - 1):
        raise GraphParseError("nonzero padding bits in graph6 body",
                              position=len(data) - 1)
    bits = _unpack6(body)
    # column j, read as a mask, is the neighbours of j below j; each of
    # them gets j back, one step per edge
    masks = [0] * n
    top = 0  # column j's bits start at j (j - 1) / 2
    for j in range(1, n):
        col = int(bits[top:top + j][::-1], 2)
        top += j
        masks[j] |= col
        bit = 1 << j
        while col:
            low = col & -col
            masks[low.bit_length() - 1] |= bit
            col ^= low
    return Graph._from_masks(tuple(masks))


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
