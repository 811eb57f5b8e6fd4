"""Brute-force cycle-counting oracle, the octagon partition, and the
[l,lambda,m]-regularity scanner.

The oracle (`count_cycles_through_path`, `octagon_value`) is deliberately
independent of the analytic predictions in `tables`: it anchors a seed
path and extends it by depth-first search, pruned by BFS distance to the
seed's first vertex, so any agreement between the two is evidence, not
tautology.  The last two steps are counted rather than searched: they
close the cycle through a neighbour of the first vertex.  The I and DP
table scans use it.  `octagon_partition` (recognition) and
`regularity_scan` (the FQ table scans, `analyze`) count the cycles of
every edge or path at once with split-path joins instead; the tests check
both against the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .graph import Edge, LabeledGraph, bfs

Path = tuple[int, ...]


class PathTooLongError(ValueError):
    pass


class NotCubicError(ValueError):
    pass


@dataclass(frozen=True)
class OctagonTriple:
    """Per-orbit 8-cycle counts (outer, spoke, inner) of an I- or DP-graph."""

    sigma_outer: int
    sigma_spoke: int
    sigma_inner: int

    def is_constant(self) -> bool:
        return self.sigma_outer == self.sigma_spoke == self.sigma_inner


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of an [l,lambda,m] scan: the constant, or two witness paths."""

    l: int
    m: int
    lambda_value: int | None
    witness: tuple[Path, int, Path, int] | None = None

    @property
    def is_regular(self) -> bool:
        return self.lambda_value is not None


def _validate_path(g: LabeledGraph, path: Sequence[int]) -> None:
    if len(path) == 0:
        raise ValueError("seed path must contain at least one vertex")
    if len(set(path)) != len(path):
        raise ValueError(f"seed path repeats a vertex: {path}")
    for v in path:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            raise ValueError(f"({a},{b}) is not an edge")


def count_cycles_through_path(g: LabeledGraph, path: Sequence[int], m: int) -> int:
    """Number of distinct m-cycles containing `path` as a subpath.

    Cycles are counted as undirected vertex sets with cyclic adjacency;
    orientation and rotation are quotiented out.  A seed with at least one
    edge anchors the cycle completely, so each cycle is found exactly once;
    a single-vertex seed finds each cycle in both directions, so that count
    is halved.
    """
    _validate_path(g, path)
    t = len(path) - 1
    if t >= m:
        raise PathTooLongError(f"seed has {t} edges, must be < m={m}")
    if m < 3:
        raise ValueError(f"cycle length must be >= 3, got {m}")

    remaining = m - t
    if remaining == 1:
        return 1 if g.has_edge(path[-1], path[0]) else 0
    return _count(g.adj, path, remaining, bfs(g.adj, path[0], _radius(m, remaining)))


def _radius(m: int, remaining: int) -> int:
    """BFS radius that prunes no vertex a cycle needs: the search places
    only vertices with at most remaining - 1 edges of the cycle still to
    go, so within that distance of the cycle's first vertex, and every
    vertex of an m-cycle lies within m // 2 of it."""
    return min(remaining - 1, m // 2)


def _count(
    adj: Sequence[Sequence[int]], path: Sequence[int], remaining: int, dist: dict[int, int]
) -> int:
    """`count_cycles_through_path` for a valid seed that needs `remaining`
    >= 2 more edges.

    `dist` holds the BFS distances from `path[0]` out to `_radius(m,
    remaining)`; a vertex absent from it is pruned.  The search stops three
    edges short of `path[0]`: the cycle's last two vertices are a free w
    next to the current vertex and a free x next to both w and `path[0]`,
    and those x are counted.
    """
    near = set(adj[path[0]])
    blocked = set(path)
    far = remaining
    dist_get = dist.get

    def extend(cur: int, left: int) -> int:
        total = 0
        if left == 3:
            # x != w (no self-loops) and x != cur (cur is blocked), so w
            # itself need not be blocked
            for w in adj[cur]:
                if w not in blocked and dist_get(w, far) <= 2:
                    for x in adj[w]:
                        if x in near and x not in blocked:
                            total += 1
            return total
        nxt = left - 1
        for w in adj[cur]:
            if w not in blocked and dist_get(w, far) <= nxt:
                blocked.add(w)
                total += extend(w, nxt)
                blocked.discard(w)
        return total

    if remaining == 2:
        count = sum(1 for x in adj[path[-1]] if x in near and x not in blocked)
    else:
        count = extend(path[-1], remaining)
    if len(path) == 1:
        # both traversal directions found the same anchored cycle
        assert count % 2 == 0
        count //= 2
    return count


def octagon_value(g: LabeledGraph, edge: Edge) -> int:
    """Number of distinct 8-cycles through `edge`.

    The depth-8 search never leaves the radius-4 ball around the edge, so
    on bounded-degree graphs this is a constant-time local computation.
    """
    return count_cycles_through_path(g, edge, 8)


def octagon_partition(g: LabeledGraph) -> dict[int, list[Edge]]:
    """Partition of E(g) by the per-edge 8-cycle count, each class in
    `g.edges()` order.

    Only defined for cubic graphs, where the count is a local quantity.
    The counts come from one whole-graph join (split-path counting; Alon,
    Yuster and Zwick, Algorithmica 1997), not from `octagon_value`: every
    8-cycle has one smallest vertex s and one vertex t opposite it, so it
    is exactly one unordered pair of vertex-disjoint 4-edge halves s..t
    whose other vertices all exceed s, and each of its 8 edges gains 1.
    """
    adj = g.adj
    if not all(len(nbrs) == 3 for nbrs in adj):
        raise NotCubicError("octagon partition requires a cubic graph")
    # cnt[3*u + i] counts for the edge u -> adj[u][i]; an edge's 8-cycle
    # count is the sum of its two slots
    cnt = [0] * (3 * g.n)
    for s in range(g.n):
        # the halves s-a-b-c-t by their end t: (a, b, c, then the 4 slots)
        halves: dict[int, list[tuple[int, ...]]] = {}
        for i, a in enumerate(adj[s]):
            if a < s:
                continue
            for j, b in enumerate(adj[a]):
                if b <= s:
                    continue
                for k, c in enumerate(adj[b]):
                    if c <= s or c == a:
                        continue
                    for l, t in enumerate(adj[c]):
                        if t > s and t != a and t != b:
                            halves.setdefault(t, []).append(
                                (a, b, c, 3 * s + i, 3 * a + j, 3 * b + k, 3 * c + l)
                            )
        for bucket in halves.values():
            h = len(bucket)
            if h < 2:
                continue
            gain = [0] * h
            for x in range(h - 1):
                inner = set(bucket[x][:3])
                for y in range(x + 1, h):
                    if inner.isdisjoint(bucket[y][:3]):
                        gain[x] += 1
                        gain[y] += 1
            for half, add in zip(bucket, gain):
                for slot in half[3:]:
                    cnt[slot] += add
    parts: dict[int, list[Edge]] = {}
    for u, nbrs in enumerate(adj):
        for i, v in enumerate(nbrs):
            if u < v:
                value = cnt[3 * u + i] + cnt[3 * v + adj[v].index(u)]
                parts.setdefault(value, []).append((u, v))
    return parts


def _paths_of_length(g: LabeledGraph, l: int) -> Iterator[Path]:
    """All undirected paths on l+1 vertices, each reported exactly once.

    A path is emitted with its smaller endpoint first; for l = 0 the paths
    are the single vertices.
    """
    if l == 0:
        for v in range(g.n):
            yield (v,)
        return

    adj = g.adj
    path = [0] * (l + 1)
    on_path = bytearray(g.n)

    def rec(depth: int) -> Iterator[Path]:
        if depth == l:
            if path[0] < path[l]:
                yield tuple(path)
            return
        for w in adj[path[depth]]:
            if not on_path[w]:
                path[depth + 1] = w
                on_path[w] = 1
                yield from rec(depth + 1)
                on_path[w] = 0

    for v0 in range(g.n):
        path[0] = v0
        on_path[v0] = 1
        yield from rec(0)
        on_path[v0] = 0


def regularity_scan(g: LabeledGraph, l: int, m: int) -> RegularityReport:
    """Check whether every path on l+1 vertices lies on the same number of
    m-cycles; early-exits with a two-path witness on the first mismatch.

    The counts come from `_join`, one smallest vertex s at a time.  A
    cycle's smallest vertex is at most every vertex of each path on it, so
    once every s up to a path's first vertex is joined, its count is final.
    """
    if not 0 <= l < m or m < 3:
        raise ValueError(f"need 0 <= l < m and m >= 3, got l={l}, m={m}")
    counts: dict[Path, int] = {}
    joined = 0
    first_path: Path | None = None
    first_count = 0
    for p in _paths_of_length(g, l):
        while joined <= p[0]:
            _join(g.adj, joined, l, m, counts)
            joined += 1
        c = counts.pop(p, 0)
        if first_path is None:
            first_path, first_count = p, c
        elif c != first_count:
            return RegularityReport(l, m, None, (first_path, first_count, p, c))
    # graphs with no paths of this length are vacuously regular with 0
    return RegularityReport(l, m, first_count if first_path is not None else 0)


def _halves(adj: Sequence[Sequence[int]], s: int, h: int) -> dict[int, list[Path]]:
    """The paths of h edges from s whose other vertices all exceed s, by
    their end."""
    paths: list[Path] = [(s,)]
    for _ in range(h):
        paths = [p + (w,) for p in paths for w in adj[p[-1]] if w > s and w not in p]
    out: dict[int, list[Path]] = {}
    for p in paths:
        out.setdefault(p[-1], []).append(p)
    return out


def _join(adj: Sequence[Sequence[int]], s: int, l: int, m: int, counts: dict[Path, int]) -> None:
    """Add the m-cycles whose smallest vertex is s to the `counts` of the
    paths on l+1 vertices (windows) that lie on them.

    Such a cycle is one pair of halves s..t of m // 2 and m - m // 2 edges
    with disjoint interiors, the one with the smaller first vertex first,
    as in `octagon_partition`.  Each half's number of partners is credited
    to the windows inside it, and each pair credits the 2(l - 1) windows
    (for 1 <= l <= m // 2 + 1) that lie in neither half.
    """
    h = m // 2
    # an l = 0 window at s or t lies in both halves, so the pair credits it
    lo = 1 if l == 0 else 0
    # the starts of the windows in neither half, on the cycle that runs
    # along the first half s..t at 0..h and back along the second to s at m
    cross = [i for i in range(m) if not (lo <= i <= h - l - lo or h + lo <= i <= m - l - lo)]
    short = _halves(adj, s, h)
    long = short if m % 2 == 0 else _halves(adj, s, m - h)
    for t, bucket in short.items():
        partners = long.get(t, [])
        gain = [0] * len(bucket)
        partner_gain = gain if partners is bucket else [0] * len(partners)
        for x, a in enumerate(bucket):
            inner = set(a[1:-1])
            for y, b in enumerate(partners):
                if a[1] < b[1] and inner.isdisjoint(b):
                    gain[x] += 1
                    partner_gain[y] += 1
                    if cross:
                        cycle = a + b[-2:0:-1]
                        cycle += cycle
                        for i in cross:
                            _credit(counts, cycle[i:i + l + 1], 1)
        both = [(bucket, gain), (partners, partner_gain)]
        for halves, gains in both[:1] if partners is bucket else both:
            for half, add in zip(halves, gains):
                if add:
                    for i in range(lo, len(half) - l - lo):
                        _credit(counts, half[i:i + l + 1], add)


def _credit(counts: dict[Path, int], window: Path, add: int) -> None:
    key = window if window[0] < window[-1] else window[::-1]
    counts[key] = counts.get(key, 0) + add
