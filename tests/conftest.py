import random

from hypothesis import settings

from cyclereg import DPParams, LabeledGraph, build_graph

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
