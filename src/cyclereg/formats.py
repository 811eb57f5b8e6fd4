"""Graph serialization: a human-diffable edge-list format and graph6.

Edge list: header line "n m", then m lines "u v" with 0-based ids; lines
starting with '#' are comments.  Edges are emitted in the lexicographic
order of `LabeledGraph.edges`, which makes the parse/emit round-trip
byte-identical.

graph6: the standard ASCII encoding (6-bit chunks offset by 63, upper
triangle in column order), one graph per line.
"""

from __future__ import annotations

import re
from typing import Iterator

from .graph import Edge, LabeledGraph, _adjacency, build_graph

#: Largest vertex count an edge-list header may ask for; checked before any
#: allocation, since the graph holds a few pointers per vertex.
MAX_EDGE_LIST_VERTICES = 1 << 22


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def emit_edge_list(g: LabeledGraph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> LabeledGraph:
    pairs = _pairs(text.splitlines())  # the lines go when the walk ends
    n, m = next(pairs, (-1, 0))
    if n < 0:
        raise ParseError("missing 'n m' header line")
    g = _adjacency(n, pairs)
    if g is None:
        # a bad edge: walk the lines again, so that a later line that is
        # not two integers and then the edge count are reported first, and
        # then build_graph's message for the first bad edge
        edges = list(_pairs(text.splitlines()))[1:]
        _check_count(m, len(edges))
        try:
            return build_graph(n, edges)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    _check_count(m, g.m)
    return g


def _pairs(lines: list[str]) -> Iterator[Edge]:
    """The two integers of each line that is not blank or a comment, the
    first of them the checked 'n m' header."""
    header = True
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        try:
            a, b = fields
            a, b = int(a), int(b)
        except ValueError:
            raise ParseError(f"expected two integers, got {raw.strip()!r}", lineno) from None
        if header:
            if a < 0 or b < 0:
                raise ParseError("header counts must be nonnegative", lineno)
            if a > MAX_EDGE_LIST_VERTICES:
                raise ParseError(
                    f"header asks for {a} vertices, more than {MAX_EDGE_LIST_VERTICES}", lineno
                )
            header = False
        yield a, b


def _check_count(m: int, found: int) -> None:
    if found != m:
        raise ParseError(f"header promised {m} edges, found {found}")


def _g6_number(n: int) -> bytes:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes([126, 126]) + bytes(((n >> s) & 63) + 63 for s in range(30, -1, -6))
    raise ValueError(f"graph too large for graph6: {n} vertices")


#: graph6's characters, and the tables that add and take off their offset
#: of 63 with bytes.translate.
_G6_CHARS = bytes(range(63, 127))
_G6_ENCODE = bytes((b + 63) & 255 for b in range(256))
_G6_DECODE = bytes((b - 63) & 255 for b in range(256))
#: The payload bytes that hold a set bit, and the set bits of each 6-bit
#: value, the most significant (bit 0) first.
_G6_NONZERO = re.compile(rb"[^\x00]")
_G6_BITS = [tuple(bit for bit in range(6) if value & (32 >> bit)) for value in range(64)]


def encode_graph6(g: LabeledGraph) -> str:
    header = _g6_number(g.n)
    payload = bytearray((g.n * (g.n - 1) // 2 + 5) // 6)
    for row, col in g.edges():
        pos = col * (col - 1) // 2 + row
        payload[pos // 6] |= 32 >> pos % 6
    return (header + payload.translate(_G6_ENCODE)).decode("ascii")


def decode_graph6(line: str) -> LabeledGraph:
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    # a character outside ASCII encodes to bytes above 127, so it fails too
    data = s.encode("utf-8", "surrogatepass")
    if data.translate(None, _G6_CHARS):
        raise ParseError("invalid graph6 character")
    data = data.translate(_G6_DECODE)
    if not data:
        raise ParseError("empty graph6 line")
    if data[0] <= 62:
        n, idx = data[0], 1
    elif len(data) >= 4 and data[1] <= 62:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        idx = 4
    elif len(data) >= 8:
        n = 0
        for b in data[2:8]:
            n = (n << 6) | b
        idx = 8
    else:
        raise ParseError("truncated graph6 header")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - idx != need:
        raise ParseError(f"expected {need} payload bytes, got {len(data) - idx}")
    # graph6 holds each pair row < col once, so the builder refuses nothing
    return _adjacency(n, _g6_edges(n, data, idx))


def _g6_edges(n: int, data: bytes, idx: int) -> Iterator[Edge]:
    """The set bits of the payload as (row, col), in column order; bits past
    the n(n-1)/2 pairs are padding and ignored."""
    total = n * (n - 1) // 2
    col, start = 1, 0  # column col holds the bits start .. start + col - 1
    for match in _G6_NONZERO.finditer(data, idx):
        i = match.start()
        for bit in _G6_BITS[data[i]]:
            pos = 6 * (i - idx) + bit
            if pos >= total:
                return
            while pos >= start + col:
                start += col
                col += 1
            yield pos - start, col
