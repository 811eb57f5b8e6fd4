"""Output checks made apart from the program under test.

Nothing here calls `cyclereg`'s recognizers, generators or cycle oracle:

- a certificate is replayed against the adjacency rule of the family and
  parameters it names;
- a non-member is kept only when a per-edge invariant proves that it is
  no member of any family;
- the table scans are compared with the 8-cycle classification
  (`predict_i_octagon`, `predict_dp_octagon`), with the closed forms
  (`fq_lambda`) and with recounts by `networkx.simple_cycles`.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from math import gcd

from graphs import Edge, adjacency, fq_edges

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fq_reference.json")


# ---------------------------------------------------------------------------
# certificate replay


def _index(name, sides: str, size: int) -> tuple[str, int] | None:
    if not isinstance(name, str):
        return None
    side, digits = name[:1], name[1:]
    if side not in sides or not digits.isdigit() or str(int(digits)) != digits:
        return None
    idx = int(digits)
    return (side, idx) if idx < size else None


def _i_rule(n: int, j: int, k: int):
    def ok(a: tuple[str, int], b: tuple[str, int]) -> bool:
        (sa, ia), (sb, ib) = sorted((a, b))
        d = (ib - ia) % n
        if sa != sb:
            return ia == ib
        return d in (j, n - j) if sa == "u" else d in (k, n - k)
    return ok


def _dp_rule(n: int, k: int):
    def ok(a: tuple[str, int], b: tuple[str, int]) -> bool:
        (sa, ia), (sb, ib) = sorted((a, b))
        d = (ib - ia) % n
        if sa + sb in ("uu", "xx"):
            return d in (1, n - 1)
        if sa + sb in ("uw", "xy"):
            return d == 0
        return sa + sb == "wy" and d in (k, n - k)
    return ok


def replay_certificate(n: int, edges: list[Edge], cert) -> str | None:
    """None when `cert` proves the input isomorphic to the family member it
    names, else the reason it does not.

    The labeling must be a bijection from the input's vertices onto the
    member's vertex names and carry every input edge onto an edge of the
    member; with equal edge counts that is an isomorphism.
    """
    labeling = cert.labeling
    if len(labeling) != n or set(labeling) != set(range(n)):
        return "labeling does not cover the vertices exactly"
    arity = {"i-graph": 3, "dp-graph": 2, "folded-cube": 1}.get(cert.family)
    if arity is None:
        return f"unknown family {cert.family!r}"
    if len(cert.params) != arity or not all(type(p) is int for p in cert.params):
        return f"malformed parameters {cert.params} for {cert.family}"
    if cert.family == "i-graph":
        size, j, k = cert.params
        if not (size >= 3 and 1 <= j and 2 * j < size and 1 <= k and 2 * k < size):
            return f"parameters {cert.params} out of range"
        order, size_e, sides, ok = 2 * size, 3 * size, "uw", _i_rule(size, j, k)
    elif cert.family == "dp-graph":
        size, k = cert.params
        if not (size >= 3 and 1 <= k and 2 * k < size):
            return f"parameters {cert.params} out of range"
        order, size_e, sides, ok = 4 * size, 6 * size, "uwxy", _dp_rule(size, k)
    else:
        (dim,) = cert.params
        if dim < 3:
            return f"dimension {dim} out of range"
        return _replay_fq(n, edges, dim, labeling)
    if order != n or size_e != len(edges):
        return f"{cert.family} {cert.params} has another order or size"
    phi = [_index(labeling[v], sides, size) for v in range(n)]
    if None in phi or len(set(phi)) != n:
        return "labeling is not a bijection onto the family's names"
    bad = next((e for e in edges if not ok(phi[e[0]], phi[e[1]])), None)
    return None if bad is None else f"edge {bad} maps to a non-edge"


def _replay_fq(n: int, edges: list[Edge], dim: int, labeling: dict[int, str]) -> str | None:
    width = dim - 1
    if n != 1 << width or len(edges) != dim << (width - 1):
        return f"FQ_{dim} has another order or size"
    words = []
    for v in range(n):
        name = labeling[v]
        if not isinstance(name, str) or len(name) != width or set(name) - {"0", "1"}:
            return "labeling is not a bijection onto the family's names"
        words.append(sum(1 << b for b, c in enumerate(name) if c == "1"))
    if len(set(words)) != n:
        return "labeling is not a bijection onto the family's names"
    mask = n - 1
    for a, b in edges:
        x = words[a] ^ words[b]
        if x != mask and x & (x - 1):
            return f"edge {(a, b)} maps to a non-edge"
    return None


# ---------------------------------------------------------------------------
# non-membership


def edge_profile_classes(n: int, edges: list[Edge], radius: int) -> Counter:
    """How many edges share each profile, where an edge's profile is the
    number of vertices within distance 1..radius of the edge.

    The profile is computed from the graph alone, so an automorphism keeps
    it: it is constant on every edge orbit.
    """
    adj = adjacency(n, edges)
    balls = [frozenset((v,)) for v in range(n)]
    levels = []
    for _ in range(radius):
        balls = [balls[v].union(*(balls[w] for w in adj[v])) for v in range(n)]
        levels.append(balls)
    return Counter(
        tuple(len(lv[a] | lv[b]) for lv in levels) for a, b in edges
    )


def proves_nonmember(n: int, edges: list[Edge]) -> bool:
    """True when the graph is provably no I-graph, DP-graph or folded cube.

    - I(m,j,k) and DP(m,k) have the rotation i -> i+1, whose edge orbits
      have |V|/2 and |V|/4 edges; so every profile class of a member has a
      multiple of |V|/4 edges (radius 4 separates the near-misses).
    - FQ_m is edge-transitive: a member has one profile class.
    - No family has another degree and order pattern.
    """
    degrees = Counter(len(nb) for nb in adjacency(n, edges))
    if len(degrees) != 1:
        return True
    (deg,) = degrees
    if deg == 3 and n % 4 == 0:
        sizes = edge_profile_classes(n, edges, 4).values()
        return any(s % (n // 4) for s in sizes)
    if deg == 3 and n % 2 == 0:
        sizes = edge_profile_classes(n, edges, 4).values()
        return any(s % (n // 2) for s in sizes)
    if deg >= 4 and n == 1 << (deg - 1):
        return len(edge_profile_classes(n, edges, 2)) > 1
    return deg != 3 or n % 2 == 1


# ---------------------------------------------------------------------------
# tables 5 and 8 against the 8-cycle classification


def canonical_i_reps(max_n: int) -> list[tuple[int, int, int]]:
    """Connected I(n,j,k), n <= max_n, one per multiplier class
    {j,k} -> {aj, +-ak} (a a unit mod n), the least sorted pair of each."""
    reps = []
    for n in range(3, max_n + 1):
        units = [a for a in range(1, n) if gcd(a, n) == 1]
        seen = set()
        for j in range(1, (n - 1) // 2 + 1):
            for k in range(j, (n - 1) // 2 + 1):
                if (j, k) in seen:
                    continue
                orbit = {
                    tuple(sorted((min(a * j % n, -a * j % n), min(a * k % n, -a * k % n))))
                    for a in units
                }
                seen |= orbit
                if gcd(gcd(n, j), k) == 1:
                    reps.append((n, *min(orbit)))
    return reps


def check_table(table: str, found: dict, max_n: int) -> list[str]:
    """Problems with a table 5 or 8 scan: the classification's triple must be
    constant exactly at the members found, with the same lambda."""
    from cyclereg import DPParams, IParams, predict_dp_octagon, predict_i_octagon

    if table == "table5":
        grid = canonical_i_reps(max_n)
        triples = {p: predict_i_octagon(IParams(*p)) for p in grid}
    else:
        grid = [(n, k) for n in range(3, max_n + 1) for k in range(1, (n - 1) // 2 + 1)]
        triples = {p: predict_dp_octagon(DPParams(*p)) for p in grid}
    expected = {p: t.sigma_outer for p, t in triples.items() if t.is_constant()}
    return [
        f"{table} {p}: classification {expected.get(p)}, scan {found.get(p)}"
        for p in sorted(set(expected) | set(found))
        if expected.get(p) != found.get(p)
    ]


# ---------------------------------------------------------------------------
# folded-cube rows against closed forms and networkx recounts


def networkx_lambda(dim: int, l: int, m: int) -> int | None:
    """[l,lambda,m] of FQ_dim recounted with networkx: lambda when every
    path on l+1 vertices lies on the same number of m-cycles, else None."""
    import networkx as nx

    g = nx.Graph(fq_edges(dim))
    counts: Counter = Counter()
    for cyc in nx.simple_cycles(g, length_bound=m):
        if len(cyc) != m:
            continue
        for i in range(m):
            path = tuple(cyc[(i + t) % m] for t in range(l + 1))
            counts[min(path, path[::-1])] += 1
    paths = set()
    for v in g:  # every path on l+1 vertices, l in (1, 2)
        for a in g[v]:
            if l == 1:
                paths.add(min((v, a), (a, v)))
            else:
                paths.update(min((a, v, b), (b, v, a)) for b in g[v] if b != a)
    values = {counts[p] for p in paths}
    return values.pop() if len(values) == 1 else None


#: Rows recounted live; the larger ones come from the reference file.
LIVE_RECOUNT = {(1, 4): 9, (1, 6): 7, (2, 6): 7, (1, 8): 5}


def load_reference() -> dict[tuple[int, int, int], int | None]:
    with open(REFERENCE_FILE) as fh:
        rows = json.load(fh)["rows"]
    return {(r["l"], r["m"], r["n"]): r["lambda"] for r in rows}


def check_fq_rows(rows, reference) -> list[str]:
    """Problems with `check_fq_formula` rows: the oracle's value must equal
    the recount, and the verified closed form where there is one (a
    published constant the oracle refutes is a finding, not a problem)."""
    from cyclereg import fq_lambda

    problems = []
    for row in rows:
        key = (row.l, row.m, row.n)
        if row.n <= LIVE_RECOUNT[(row.l, row.m)]:
            recount = networkx_lambda(row.n, row.l, row.m)
        else:
            recount = reference[key]
        if row.measured != recount:
            problems.append(f"FQ_{row.n} [{row.l},{row.m}]: oracle {row.measured}, recount {recount}")
        closed = fq_lambda(row.n, row.l, row.m)
        if not closed.conjectured and row.measured != closed.value:
            problems.append(f"FQ_{row.n} [{row.l},{row.m}]: oracle {row.measured}, closed form {closed.value}")
    return problems
