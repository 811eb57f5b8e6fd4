import random
import tracemalloc

from hypothesis import settings

from cyclereg import (
    DPParams,
    DuplicateEdgeError,
    IParams,
    LabeledGraph,
    ParseError,
    RegularityReport,
    SelfLoopError,
    VertexOutOfRangeError,
    build_graph,
    count_cycles_through_path,
)
from cyclereg.cycles import _paths_of_length
from cyclereg.families import Params, member_order
from cyclereg.graph import Edge
from cyclereg.formats import MAX_EDGE_LIST_VERTICES

# keep the randomized suites reproducible run to run
settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")


def shuffled(g: LabeledGraph, seed: int) -> LabeledGraph:
    """Random vertex relabeling and edge order, so the recognizers see only
    raw structure."""
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[a], perm[b]) for a, b in g.edges()]
    rng.shuffle(edges)
    return build_graph(g.n, edges)


def random_cubic(n: int, rng: random.Random) -> LabeledGraph:
    """Random cubic graph via the pairing model with simplicity rejection."""
    assert n % 2 == 0 and n >= 4
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            a, b = stubs[i], stubs[i + 1]
            if a == b or (min(a, b), max(a, b)) in edges:
                ok = False
                break
            edges.add((min(a, b), max(a, b)))
        if ok:
            return build_graph(n, sorted(edges))


def enumerate_cycles(g: LabeledGraph, m: int) -> list[tuple[int, ...]]:
    """All m-cycles as canonical vertex tuples, by plain DFS enumeration.

    Canonical form: starts at the cycle's smallest vertex, second vertex
    smaller than the last.  Independent of the library's counting path.
    """
    out = []
    path = []

    def dfs(v: int, visited: set[int]) -> None:
        path.append(v)
        if len(path) == m:
            if g.has_edge(v, path[0]) and path[1] < path[-1]:
                out.append(tuple(path))
        else:
            for w in g.adj[v]:
                if w > path[0] and w not in visited:
                    visited.add(w)
                    dfs(w, visited)
                    visited.discard(w)
        path.pop()

    for v0 in range(g.n):
        dfs(v0, {v0})
    return out


def count_cycles(g: LabeledGraph, m: int) -> int:
    """Total number of m-cycles in the graph, from the oracle.

    Every m-cycle passes through exactly m vertices, so summing the
    anchored per-vertex counts and dividing by m is exact.
    """
    total = sum(count_cycles_through_path(g, (v,), m) for v in range(g.n))
    assert total % m == 0
    return total // m


def reference_regularity_scan(g: LabeledGraph, l: int, m: int) -> RegularityReport:
    """`regularity_scan` path by path: the oracle's count for each path of
    `_paths_of_length`, in its order, up to the first count that differs
    from the first path's."""
    first_path, first_count = None, 0
    for p in _paths_of_length(g, l):
        c = count_cycles_through_path(g, p, m)
        if first_path is None:
            first_path, first_count = p, c
        elif c != first_count:
            return RegularityReport(l, m, None, (first_path, first_count, p, c))
    return RegularityReport(l, m, first_count if first_path is not None else 0)


class OddNError(ValueError):
    pass


def dp_twin_map(p: DPParams) -> dict[int, int]:
    """The explicit vertex bijection DP(n,k) -> DP(n, n/2 - k) for even n:
    u_i -> u_i, w_i -> w_i, x_i -> x_{i+n/2}, y_i -> y_{i+n/2}.
    """
    n = p.n
    if n % 2 != 0:
        raise OddNError(f"n must be even, got {n}")
    half = n // 2
    mapping: dict[int, int] = {}
    for i in range(n):
        mapping[i] = i
        mapping[n + i] = n + i
        mapping[2 * n + i] = 2 * n + (i + half) % n
        mapping[3 * n + i] = 3 * n + (i + half) % n
    return mapping


def reference_member_edges(p: Params) -> tuple[int, list[Edge]]:
    """The vertex count and the edge list of I(n,j,k), DP(n,k) or FQ_n, as
    an edge rule written apart from `families.member_adjacency`.

    I(n,j,k): outer edges u_i u_{i+j}, inner w_i w_{i+k}, spokes u_i w_i.
    DP(n,k): rims u_i u_{i+1} and x_i x_{i+1}, spokes u_i w_i and x_i y_i,
    and the crossed inner edges w_i y_{i+k}, y_i w_{i+k}.
    FQ_n: Q_{n-1} plus the matching of each id with its bitwise complement;
    for FQ_2 that diagonal would repeat the lone cube edge, so it is left
    out.  Every list is simple and holds each edge once.
    """
    if isinstance(p, IParams):
        n, j, k = p.n, p.j, p.k
        edges: list[Edge] = []
        for i in range(n):
            edges.append((i, (i + j) % n))
            edges.append((n + i, n + (i + k) % n))
            edges.append((i, n + i))
    elif isinstance(p, DPParams):
        n, k = p.n, p.k
        edges = []
        u, w, x, y = 0, n, 2 * n, 3 * n
        for i in range(n):
            nxt = (i + 1) % n
            stepped = (i + k) % n
            edges.append((u + i, u + nxt))
            edges.append((x + i, x + nxt))
            edges.append((u + i, w + i))
            edges.append((x + i, y + i))
            edges.append((w + i, y + stepped))
            edges.append((y + i, w + stepped))
    else:
        width = p.n - 1
        edges = reference_cube_edges(width)
        if width >= 2:
            mask = (1 << width) - 1
            edges.extend((v, v ^ mask) for v in range(1 << (width - 1)))
    return member_order(p), edges


def reference_cube_edges(width: int) -> list[Edge]:
    """The edges of Q_width: ids that differ in exactly one bit."""
    return [
        (v, v ^ (1 << b))
        for v in range(1 << width)
        for b in range(width)
        if not v & (1 << b)
    ]


def reference_build_graph(n: int, edges) -> LabeledGraph:
    """`build_graph` as a two-pass reader had it: one key set of the edges,
    then a sorted copy of each neighbour list.  The property tests hold the
    one-pass builder to it, graph for graph and error for error."""
    if n < 0:
        raise VertexOutOfRangeError("vertex count must be nonnegative")
    adj: list[list[int]] = [[] for _ in range(n)]
    seen: set[int] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRangeError(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        key = u * n + v if u < v else v * n + u
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge {(min(u, v), max(u, v))}")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    return LabeledGraph(n=n, adj=tuple(tuple(sorted(nbrs)) for nbrs in adj))


def reference_parse_edge_list(text: str) -> LabeledGraph:
    """`parse_edge_list` as a two-pass reader had it: a list of every edge,
    then `reference_build_graph`."""
    header = None
    edges = []
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
        return reference_build_graph(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def outcome(fn, *args):
    """What `fn(*args)` gives: its value, or the class, message and line of
    what it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def peak_memory(fn, *args) -> int:
    """tracemalloc's peak, in bytes, over one call of `fn(*args)`."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
