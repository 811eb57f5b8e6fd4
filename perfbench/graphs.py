"""The benchmark's own graph code, kept apart from the library under test.

Family members are built from each family's defining adjacency rule, never
by `cyclereg`'s generators; inputs are handed over as text in the two
formats the library reads, and the checkers read that text back with the
parsers below.  Vertices are integers 0..n-1 and an edge list holds each
edge once.
"""

from __future__ import annotations

import random
from collections import deque

Edge = tuple[int, int]


# ---------------------------------------------------------------------------
# family members by their adjacency rules


def i_graph_edges(n: int, j: int, k: int) -> list[Edge]:
    """I(n,j,k): u_i = i, w_i = n + i; u_i ~ u_{i+j}, u_i ~ w_i, w_i ~ w_{i+k}."""
    out = []
    for i in range(n):
        out.append((i, (i + j) % n))
        out.append((i, n + i))
        out.append((n + i, n + (i + k) % n))
    return out


def dp_edges(n: int, k: int) -> list[Edge]:
    """DP(n,k): u, w, x, y at offsets 0, n, 2n, 3n; the u- and x-rims, the
    uw and xy spokes, and w_i ~ y_{i+k}, y_i ~ w_{i+k}."""
    u, w, x, y = 0, n, 2 * n, 3 * n
    out = []
    for i in range(n):
        nxt, far = (i + 1) % n, (i + k) % n
        out += [(u + i, u + nxt), (x + i, x + nxt), (u + i, w + i), (x + i, y + i),
                (w + i, y + far), (y + i, w + far)]
    return out


def fq_edges(n: int) -> list[Edge]:
    """FQ_n on the (n-1)-bit words: one flipped bit, or the complement."""
    width = n - 1
    mask = (1 << width) - 1
    out = []
    for v in range(1 << width):
        out += [(v, v ^ (1 << b)) for b in range(width) if v < v ^ (1 << b)]
        if v < v ^ mask:
            out.append((v, v ^ mask))
    return out


def random_cubic_edges(n: int, rng: random.Random) -> list[Edge]:
    """A connected simple cubic graph: a random Hamiltonian cycle plus a
    random perfect matching that repeats none of its edges."""
    if n % 2 or n < 6:
        raise ValueError("a cubic graph needs an even order of at least 6")
    order = list(range(n))
    rng.shuffle(order)
    cycle = {frozenset((order[i], order[(i + 1) % n])) for i in range(n)}
    while True:
        rng.shuffle(order)
        pairs = list(zip(order[0::2], order[1::2]))
        if not any(frozenset(p) in cycle for p in pairs):
            return [tuple(e) for e in cycle] + pairs


# ---------------------------------------------------------------------------
# transformations


def adjacency(n: int, edges: list[Edge]) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def is_connected(n: int, adj: list[set[int]]) -> bool:
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        for b in adj[queue.popleft()]:
            if not seen[b]:
                seen[b] = True
                count += 1
                queue.append(b)
    return count == n


def two_switch(edges: list[Edge], adj: list[set[int]], rng: random.Random) -> list[Edge]:
    """Replace two random edges ab, cd by ac, bd; degrees are kept."""
    while True:
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) == 4 and c not in adj[a] and d not in adj[b]:
            break
    for p, q in ((a, b), (c, d)):
        adj[p].discard(q)
        adj[q].discard(p)
    for p, q in ((a, c), (b, d)):
        adj[p].add(q)
        adj[q].add(p)
    out = [e for t, e in enumerate(edges) if t not in (i, j)]
    return out + [(a, c), (b, d)]


def relabel(n: int, edges: list[Edge], rng: random.Random) -> list[Edge]:
    """Apply a random vertex permutation and shuffle the edge order."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[a], perm[b]) if rng.random() < 0.5 else (perm[b], perm[a]) for a, b in edges]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# text formats


def edge_list_text(n: int, edges: list[Edge]) -> str:
    return "".join([f"{n} {len(edges)}\n"] + [f"{a} {b}\n" for a, b in edges])


def graph6_text(n: int, edges: list[Edge]) -> str:
    """The standard graph6 line, for n <= 62 or a 4-byte size header."""
    if n > 258047:
        raise ValueError("graph6 here covers at most 258047 vertices")
    head = [n + 63] if n <= 62 else [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    bits = bytearray(n * (n - 1) // 2 + 5)
    for a, b in edges:
        lo, hi = min(a, b), max(a, b)
        bits[hi * (hi - 1) // 2 + lo] = 1  # upper triangle, column by column
    body = [
        63 + sum(bits[p + t] << (5 - t) for t in range(6))
        for p in range(0, n * (n - 1) // 2, 6)
    ]
    return bytes(head + body).decode("ascii") + "\n"


def read_edge_list(text: str) -> tuple[int, list[Edge]]:
    lines = text.split("\n")
    n, m = map(int, lines[0].split())
    edges = [tuple(map(int, line.split())) for line in lines[1:1 + m]]
    return n, edges


def read_graph6(text: str) -> tuple[int, list[Edge]]:
    data = [c - 63 for c in text.strip().encode("ascii")]
    if data[0] <= 62:
        n, data = data[0], data[1:]
    else:
        n, data = (data[1] << 12) | (data[2] << 6) | data[3], data[4:]
    edges = []
    pos = 0
    for hi in range(1, n):
        for lo in range(hi):
            if (data[pos // 6] >> (5 - pos % 6)) & 1:
                edges.append((lo, hi))
            pos += 1
    return n, edges


def read_text(fmt: str, text: str) -> tuple[int, list[Edge]]:
    return read_graph6(text) if fmt == "graph6" else read_edge_list(text)
