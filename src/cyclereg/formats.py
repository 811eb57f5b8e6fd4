"""Graph serialization: a human-diffable edge-list format and graph6.

Edge list: header line "n m", then m lines "u v" with 0-based ids; lines
starting with '#' are comments.  Emitting sorted edges makes the
parse/emit round-trip byte-identical.

graph6: the standard ASCII encoding (6-bit chunks offset by 63, upper
triangle in column order), one graph per line.
"""

from __future__ import annotations

from .graph import Edge, LabeledGraph, build_graph

#: Largest vertex count an edge-list header may ask for; checked before any
#: allocation, since build_graph allocates one adjacency list per vertex.
MAX_EDGE_LIST_VERTICES = 1 << 22


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def emit_edge_list(g: LabeledGraph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges()))
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> LabeledGraph:
    header: tuple[int, int] | None = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"expected two integers, got {line!r}", lineno)
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"expected two integers, got {line!r}", lineno) from None
        if header is None:
            if a < 0 or b < 0:
                raise ParseError("header counts must be nonnegative", lineno)
            if a > MAX_EDGE_LIST_VERTICES:
                raise ParseError(
                    f"header asks for {a} vertices, more than {MAX_EDGE_LIST_VERTICES}", lineno
                )
            header = (a, b)
        else:
            edges.append((a, b))
    if header is None:
        raise ParseError("missing 'n m' header line")
    n, m = header
    if len(edges) != m:
        raise ParseError(f"header promised {m} edges, found {len(edges)}")
    try:
        return build_graph(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


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


def encode_graph6(g: LabeledGraph) -> str:
    n = g.n
    out = bytearray(_g6_number(n))
    bits = 0
    nbits = 0
    for col in range(1, n):
        for row in range(col):
            bits = (bits << 1) | (1 if g.has_edge(row, col) else 0)
            nbits += 1
            if nbits == 6:
                out.append(bits + 63)
                bits = nbits = 0
    if nbits:
        out.append((bits << (6 - nbits)) + 63)
    return out.decode("ascii")


def decode_graph6(line: str) -> LabeledGraph:
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise ParseError("invalid graph6 character")
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
    edges: list[Edge] = []
    pos = 0
    for col in range(1, n):
        for row in range(col):
            byte = data[idx + pos // 6]
            if (byte >> (5 - pos % 6)) & 1:
                edges.append((row, col))
            pos += 1
    return build_graph(n, edges)
