"""Minimal immutable undirected simple-graph substrate.

Vertices are dense integer ids 0..n-1 and nothing else is stored: family
names (u3, w7, binary strings, ...) are rendered from the ids by
`families.vertex_name`, and edge roles follow from the id convention.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Edge = tuple[int, int]


class GraphError(ValueError):
    """Base class for graph construction errors."""


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class VertexOutOfRangeError(GraphError):
    pass


@dataclass(frozen=True)
class LabeledGraph:
    """Undirected simple graph on the vertex ids 0..n-1.

    Immutable after construction; adjacency lists are kept sorted so edge
    lookup is O(log deg) and equal graphs have identical representations.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.adj[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def edges(self) -> Iterator[Edge]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)


def build_graph(n: int, edges: Sequence[tuple[int, int]]) -> LabeledGraph:
    """Build a simple graph, rejecting self-loops, duplicates and bad ids."""
    if n < 0:
        raise VertexOutOfRangeError("vertex count must be nonnegative")
    g = _adjacency(n, edges)
    if g is not None:
        return g
    # refused: walk the edges again to name the first bad one in input order
    seen: set[int] = set()  # u * n + v for each edge, u < v
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRangeError(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        key = u * n + v if u < v else v * n + u
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge {(min(u, v), max(u, v))}")
        seen.add(key)
    raise AssertionError("_adjacency refused a simple edge list")


def _adjacency(n: int, edges: Iterable[tuple[int, int]]) -> LabeledGraph | None:
    """The graph of `edges` in one pass, or None if an edge has a bad id, is
    a self-loop or repeats one before it.

    Every occurrence of a vertex id in the adjacency is one int object, the
    first one seen, so lookups keyed by ids hit on identity; and a vertex
    gets a neighbour list only once it has an edge, so a large n costs a
    few pointers per vertex.  Self-loops and repeats are found at the end,
    as a neighbour list that holds some vertex twice.
    """
    adj: list[list[int] | None] = [None] * n
    ids: list[int | None] = [None] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return None
        nu = adj[u]
        if nu is None:
            adj[u] = nu = []
            ids[u] = u
        else:
            u = ids[u]
        nv = adj[v]
        if nv is None:
            adj[v] = nv = []
            ids[v] = v
        else:
            v = ids[v]
        nu.append(v)
        nv.append(u)
    del ids
    if sum(map(len, map(set, filter(None, adj)))) != sum(map(len, filter(None, adj))):
        return None
    return LabeledGraph(n=n, adj=tuple(() if nbrs is None else tuple(sorted(nbrs)) for nbrs in adj))


def is_regular(g: LabeledGraph, k: int) -> bool:
    """True iff every vertex has degree k (vacuously true when empty)."""
    return all(len(nbrs) == k for nbrs in g.adj)


def connected_components(g: LabeledGraph) -> list[list[int]]:
    """Partition of the vertex set into maximal connected sets, one `bfs`
    each.

    Components are listed by smallest member, each sorted ascending.
    """
    seen: set[int] = set()
    comps: list[list[int]] = []
    for s in range(g.n):
        if s not in seen:
            comp = bfs(g.adj, s)
            seen.update(comp)
            comps.append(sorted(comp))
    return comps


def bfs(
    adj: Sequence[Sequence[int]], source: int, radius: int | None = None
) -> dict[int, int]:
    """BFS distances from `source` out to `radius` (default: unbounded).

    Unreachable vertices, and those beyond the radius, are absent; the keys
    are in the order the search reaches them.  The dict keeps the cost
    bounded by the ball, not by |V|, so per-edge 8-cycle counts stay
    constant-time on huge bounded-degree graphs.
    """
    if radius is None:
        radius = len(adj)
    dist = {source: 0}
    frontier = [source]
    d = 0
    while frontier and d < radius:
        d += 1
        reached = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = d
                    reached.append(v)
        frontier = reached
    return dist


def induced_subgraph(
    g: LabeledGraph, vertices: Sequence[int]
) -> tuple[LabeledGraph, list[int]]:
    """Induced subgraph on `vertices` plus the new-id -> old-id table.

    g is simple already, so its rows are relabeled, not rebuilt: the map
    from old ids to new is monotone, so each row stays sorted, and each new
    id is one int object, the value `remap` holds."""
    old_ids = sorted(set(vertices))
    remap = {old: new for new, old in enumerate(old_ids)}
    adj = g.adj
    rows = tuple(tuple([remap[v] for v in adj[u] if v in remap]) for u in old_ids)
    return LabeledGraph(n=len(old_ids), adj=rows), old_ids
