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
both against the oracle.  The partition's join keeps one end table for the
whole graph and computes edge slots only for the halves that pair.  The
scan's join reads each half's partners off per-vertex clash masks and
credits each window once per prefix that the halves share.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress
from operator import itemgetter
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

    Most halves share their end t with no other half, so one end table
    serves every s: `mark[t] == s` once a half from s reaches t, and
    `first[t]` holds its inner vertices.  Only a second half to t opens a
    bucket there; each new half pairs at once with the halves before it,
    and only a disjoint pair looks up the slots of its 8 edges.
    """
    adj = g.adj
    if not all(len(nbrs) == 3 for nbrs in adj):
        raise NotCubicError("octagon partition requires a cubic graph")
    # cnt[3*u + i] counts for the edge u -> adj[u][i]; an edge's 8-cycle
    # count is the sum of its two slots
    cnt = [0] * (3 * g.n)
    mark = [-1] * g.n
    first: list = [None] * g.n  # (a, b, c), or the bucket of them once shared
    for s in range(g.n):
        for a in adj[s]:
            if a < s:
                continue
            for b in adj[a]:
                if b <= s:
                    continue
                for c in adj[b]:
                    if c <= s or c == a:
                        continue
                    for t in adj[c]:
                        if t <= s or t == a or t == b:
                            continue
                        if mark[t] != s:
                            mark[t] = s
                            first[t] = (a, b, c)
                            continue
                        bucket = first[t]
                        if bucket.__class__ is tuple:
                            first[t] = bucket = [bucket]
                        for half in bucket:
                            if a in half or b in half or c in half:
                                continue
                            for x, y, z in (half, (a, b, c)):
                                cnt[3 * s + adj[s].index(x)] += 1
                                cnt[3 * x + adj[x].index(y)] += 1
                                cnt[3 * y + adj[y].index(z)] += 1
                                cnt[3 * z + adj[z].index(t)] += 1
                        bucket.append((a, b, c))
    del mark, first  # so that the classes are the peak, not the tables
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


def _by_end(paths: list[Path]) -> dict[int, list[int]]:
    """The indices of the paths, by their end."""
    out: dict[int, list[int]] = {}
    for i, p in enumerate(paths):
        out.setdefault(p[-1], []).append(i)
    return out


def _disjoint(halves: list[Path], partners: list[Path]) -> tuple[list[int], dict[int, list[int]]]:
    """For each half, the bitmask of the partners to its end t whose
    interiors avoid its own (bit j for the j-th partner to t), from one
    clash mask per vertex and t; and the partners by their end."""
    at = _by_end(partners)
    masks = [0] * len(halves)
    for t, xs in (at if halves is partners else _by_end(halves)).items():
        occ: dict[int, int] = {}  # vertex -> the partners to t whose interior holds it
        bit = 1
        for y in at.get(t, ()):
            for v in partners[y][1:-1]:
                occ[v] = occ.get(v, 0) | bit
            bit <<= 1
        for x in xs:
            clash = 0
            for v in halves[x][1:-1]:
                clash |= occ.get(v, 0)
            masks[x] = (bit - 1) ^ clash
    return masks, at


def _join(adj: Sequence[Sequence[int]], s: int, l: int, m: int, counts: dict[Path, int]) -> None:
    """Add the m-cycles whose smallest vertex is s to the `counts` of the
    paths on l+1 vertices (windows) that lie on them.

    Such a cycle is a pair of halves s..t of h = m // 2 and m - h edges
    with disjoint interiors, as in `octagon_partition`; `_disjoint` gives
    each half its partners as one mask.  A half's gain, its number of
    partners, goes to the windows in it up the prefix tree of the halves:
    each path from s credits its last window once.  Pairs are visited one
    by one only for odd m, to count a long half's partners, and for l = 0
    and l >= 2, to credit the 2(l - 1) windows (for 1 <= l <= h + 1) that
    lie in neither half.
    """
    h, top = m // 2, m - m // 2
    # an l = 0 window at s or t lies in both halves, so the pair credits it
    lo = 1 if l == 0 else 0
    # the windows in neither half, on the cycle that runs along the first
    # half s..t at 0..h and back along the second to s at m
    cross = [slice(i, i + l + 1) for i in range(m)
             if not (lo <= i <= h - l - lo or h + lo <= i <= m - l - lo)]
    # levels[k]: the paths of k edges from s through vertices above s, in
    # lexicographic order; starts[k][i]: the first to extend levels[k - 1][i]
    levels, starts = [[(s,)]], [[0]]
    for _ in range(top):
        paths = [p + (w,) for p in levels[-1] for w in adj[p[-1]] if w > s and w not in p]
        # a path is below its extensions and above those of the paths before it
        starts.append([bisect_left(paths, p) for p in levels[-1]] + [len(paths)])
        levels.append(paths)
    short, long = levels[h], levels[top]
    masks, long_at = _disjoint(short, long)
    if not any(masks):  # no m-cycle has s for its smallest vertex
        return
    # a pair is walked from its short half a: its long partner's first h
    # edges come after a (all of it for even m), so that b[1] > a[1]
    after = range(1, len(short) + 1) if top == h else starts[top][1:]
    later = [mask & -(1 << bisect_left(long_at.get(a[-1], ()), y))
             for a, mask, y in zip(short, masks, after)] if cross or top > h else []
    # for even m the halves are their own partners, and each gains all of them
    gain = {h: [mask.bit_count() for mask in (masks if top == h else later)]}
    gain.setdefault(top, [0] * len(long))
    cycles = []
    for a, mask in zip(short, later):
        ys = long_at.get(a[-1], ())
        while mask:
            low = mask & -mask
            mask ^= low
            y = ys[low.bit_length() - 1]
            if top > h:  # a long half gains the partners that it is walked from
                gain[top][y] += 1
            if cross:  # the cycle twice round, so that a window across s is one slice
                cycles.append((a + long[y][-2:0:-1]) * 2)
    credits = [Counter([cycle[i] for cycle in cycles for i in cross]).items()] if cycles else []
    # the path of depth k credits its last window with the gains of the
    # halves through it, for l = 0 only of those that run past it
    below = [0] * len(long)
    for k in range(top, l + lo - 1, -1):
        total = [b + g for b, g in zip(below, gain[k])] if k in gain else below
        adds = below if lo else total
        credits.append(zip(map(itemgetter(slice(k - l, None)), compress(levels[k], adds)), filter(None, adds)))
        below = [sum(total[i:j]) for i, j in zip(starts[k], starts[k][1:])]
    for window, add in chain.from_iterable(credits):
        if window[0] > window[-1]:
            window = window[::-1]
        counts[window] = counts.get(window, 0) + add
