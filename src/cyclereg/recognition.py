"""Robust recognizers with verifiable isomorphism certificates.

Every labeler only proposes candidate labelings, maps from input vertices
to member ids, and `_certified` is the one accept step: it takes the first
candidate that `_replays` carries edge for edge onto the family's one
definition (`families.member_adjacency`), so a recognizer can never accept
a graph the definition does not reproduce.  All recognizers take arbitrary
graphs and reject with a reason otherwise.  Accepted ids are rendered to
names by `families.vertex_name` alone; `verify_certificate` reads those
names back in front of the same replay, for certificates from outside.
Folded cubes are labeled from one BFS of the whole graph (`extend_fq`);
the paper's diagonal peeling (`determine_diagonals`) is kept only as the
reference the tests compare those certificates with.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import astuple, dataclass
from math import gcd
from typing import Iterable, Iterator

from .cycles import octagon_partition
from .families import (
    DPParams,
    FQParams,
    IParams,
    Params,
    canonical_i_params,
    canonical_i_unit,
    dp_canonical_params,
    generate_dp,
    generate_i_graph,
    member_adjacency,
    member_order,
    vertex_name,
    _fold,
)
from .graph import (
    Edge,
    LabeledGraph,
    bfs,
    connected_components,
    induced_subgraph,
    is_regular,
)
from .tables import CYCLE_REGULAR_DP, CYCLE_REGULAR_I

I_GRAPH = "i-graph"
DP_GRAPH = "dp-graph"
FOLDED_CUBE = "folded-cube"


@dataclass(frozen=True)
class Certificate:
    """Recognition output: family, parameters, and the full vertex labeling
    (input vertex id -> family vertex name) proving the isomorphism."""

    family: str
    params: tuple[int, ...]
    canonical_params: tuple[int, ...]
    labeling: dict[int, str]


@dataclass(frozen=True)
class Rejection:
    reason: str
    detail: str = ""


_PARAMS = {I_GRAPH: IParams, DP_GRAPH: DPParams, FOLDED_CUBE: FQParams}
_FAMILY = {cls: family for family, cls in _PARAMS.items()}


def _replays(g: LabeledGraph, p: Params, phi: dict[int, int]) -> bool:
    """The one certificate check: phi (input vertex -> member id) is a
    bijection onto the member's ids, each member id has as many neighbours
    as its preimage, and every member edge {a, b} (`member_adjacency(p)`,
    the family's one definition), walked once as b > a in a's row while the
    rows are made, pulls back to an edge of g.  The bijection is checked
    first, so a labeling that collides builds no rows.  O(|V| + |E|)."""
    order = member_order(p)
    if order != g.n or len(phi) != order:
        return False
    inv: list[int | None] = [None] * order
    for v, x in phi.items():
        if x is None or not (0 <= v < order and 0 <= x < order) or inv[x] is not None:
            return False
        inv[x] = v
    adj = g.adj
    for a, row in enumerate(member_adjacency(p)):
        nbrs = adj[inv[a]]
        if len(row) != len(nbrs):
            return False
        for b in row:
            if b > a and inv[b] not in nbrs:
                return False
    return True


def _canonical(p: Params) -> Params:
    """Canonical parameters by family: the I multiplier scan, the smaller
    DP twin, a folded cube's own."""
    if isinstance(p, IParams):
        return canonical_i_params(p)
    if isinstance(p, DPParams):
        return dp_canonical_params(p)
    return p


def _certificate(p: Params, labeling: dict[int, str]) -> Certificate:
    """The certificate of a replayed labeling."""
    return Certificate(_FAMILY[type(p)], astuple(p), astuple(_canonical(p)), labeling)


def _certified(
    g: LabeledGraph, labelings: Iterable[tuple[Params, dict[int, int]]]
) -> tuple[Params, dict[int, str]] | None:
    """The one accept step: the first candidate (p, phi), taken lazily, whose
    member-id labeling phi replays against p, with its ids named, else
    None."""
    for p, phi in labelings:
        if _replays(g, p, phi):
            return p, {v: vertex_name(p, i) for v, i in phi.items()}
    return None


def verify_certificate(g: LabeledGraph, cert: Certificate) -> bool:
    """Check a certificate from outside: its labeling names exactly the
    vertices of g, its canonical parameters are those of its parameters,
    and each name, read back to a member id through `vertex_name`, replays
    (`_replays`).  Malformed fields make it False, never an exception."""
    try:
        p = _PARAMS[cert.family](*cert.params)
        canon = tuple(cert.canonical_params)
        names = [cert.labeling[v] for v in range(g.n)]
        bad = len(cert.labeling) != g.n or any(type(x) is not int for x in cert.params)
    except (KeyError, TypeError, ValueError):  # unknown family, bad params, missing vertex
        return False
    # the name table below spans the member's ids; a folded cube's order
    # 2^(n-1) is compared by exponent first, so a huge n builds no integer,
    # and the canonical form is computed only for a member of g's order
    if bad or isinstance(p, FQParams) and p.n > g.n.bit_length():
        return False
    if member_order(p) != g.n or canon != astuple(_canonical(p)):
        return False
    ids = {vertex_name(p, v): v for v in range(g.n)}
    phi = {v: ids.get(name) if isinstance(name, str) else None for v, name in enumerate(names)}
    return _replays(g, p, phi)


# ---------------------------------------------------------------------------
# bounded isomorphism (constant-size table lookups)


def find_isomorphism(g1: LabeledGraph, g2: LabeledGraph) -> dict[int, int] | None:
    """Explicit isomorphism between two small graphs, or None.

    Meant for the bounded lookups against the stored constant-octagon
    members (at most 52 vertices).  Vertices are bucketed by distance
    profile, whose count at distance 1 is the degree.  Depth first, each
    vertex v of g1, in BFS order from the rarest profiles, goes to a w of
    its profile: a neighbour of the image of v's first placed neighbour,
    else any of the bucket, in ascending order.  w is taken when v's placed
    neighbours map to neighbours of w and no other used vertex is adjacent
    to w, which keeps adjacency to the placed vertices both ways in
    O(degree).  The search keeps its own stack, one generator of candidates
    per placed vertex, so its depth is not bounded by Python's recursion
    limit.
    """
    n = g1.n
    if n != g2.n or g1.m != g2.m:
        return None

    def distance_profiles(g: LabeledGraph) -> list[tuple]:
        return [tuple(sorted(Counter(bfs(g.adj, v).values()).items())) for v in range(n)]

    sig1, sig2 = distance_profiles(g1), distance_profiles(g2)
    if sorted(sig1) != sorted(sig2):
        return None
    by_sig: dict[tuple, list[int]] = {}
    for w in range(n):
        by_sig.setdefault(sig2[w], []).append(w)

    # visit g1 vertices in BFS order so candidates are adjacency-constrained
    order: list[int] = []
    seen: set[int] = set()
    for s in sorted(range(n), key=lambda v: len(by_sig[sig1[v]])):
        if s not in seen:
            reached = bfs(g1.adj, s)
            order.extend(reached)
            seen.update(reached)

    mapping: dict[int, int] = {}
    used = [False] * n
    adj1, adj2 = g1.adj, g2.adj

    def candidates(v: int):
        placed = [mapping[u] for u in adj1[v] if u in mapping]
        sig = sig1[v]
        pool = [w for w in adj2[placed[0]] if sig2[w] == sig] if placed else by_sig[sig]
        return (
            w for w in pool
            if not used[w] and sum(used[x] for x in adj2[w]) == len(placed)
            and all(g2.has_edge(w, x) for x in placed)
        )

    stack = []  # the candidates left for order[0], order[1], ...
    while len(mapping) < n:
        if len(stack) == len(mapping):
            stack.append(candidates(order[len(mapping)]))
        w = next(stack[-1], None)
        if w is not None:
            mapping[order[len(stack) - 1]] = w
            used[w] = True
            continue
        stack.pop()
        if not stack:
            return None
        used[mapping.pop(order[len(stack) - 1])] = False
    return mapping


# ---------------------------------------------------------------------------
# shared spoke machinery


def _matching_partner(g: LabeledGraph, edges: list[Edge]) -> list[int] | None:
    """Partner array when `edges` is a perfect matching of ids 0..g.n-1, else None."""
    if 2 * len(edges) != g.n:
        return None
    partner = [-1] * g.n
    for u, v in edges:
        if not (0 <= u < g.n and 0 <= v < g.n) or partner[u] != -1 or partner[v] != -1:
            return None
        partner[u] = v
        partner[v] = u
    return partner


def _order_rejection(g: LabeledGraph, per: int) -> Rejection | None:
    """The order rule of I-graphs (per = 2) and DP-graphs (per = 4)."""
    if g.n % per or g.n < 3 * per:
        return Rejection("odd-order", f"|V| = {g.n} is not {per}n with n >= 3")
    return None


def _frame(
    g: LabeledGraph, spokes: list[Edge]
) -> tuple[list[int], list[tuple[int, int]], list[list[int]]] | Rejection:
    """The spoke frame both cubic labelers start from: the partner array of
    the spokes, each vertex's two non-spoke neighbours, and the cycles of
    the complement.  Each cycle is walked from its least vertex towards
    that vertex's first non-spoke neighbour, which fixes its orientation."""
    partner = _matching_partner(g, spokes)
    if partner is None:
        return Rejection("partition-shape", "spoke candidate is not a perfect matching")
    fnbrs = []
    for v, nb in enumerate(g.adj):
        p = partner[v]
        if len(nb) == 3 and p in nb:
            a, b, c = nb
            fnbrs.append((b, c) if a == p else (a, c) if b == p else (a, b))
        elif len(nb) == 2 and p not in nb:
            fnbrs.append(nb)
        else:
            return Rejection("partition-shape", "complement of spokes is not 2-regular")
    seen = [False] * g.n
    cycles = []
    for s, (nxt, _) in enumerate(fnbrs):
        if not seen[s]:
            cyc = _walk(fnbrs, s, nxt)
            for v in cyc:
                seen[v] = True
            cycles.append(cyc)
    return partner, fnbrs, cycles


def _walk(fnbrs: list[tuple[int, int]], start: int, nxt: int) -> list[int]:
    """The complement cycle through `start`, walked towards its neighbour
    `nxt`.  `nxt` must be one of fnbrs[start]; otherwise the walk need not
    come back to `start` and never ends."""
    cyc = [start]
    prev, cur = start, nxt
    while cur != start:
        cyc.append(cur)
        a, b = fnbrs[cur]
        prev, cur = cur, (b if a == prev else a)
    return cyc


def _spoke_candidate(g: LabeledGraph, class_edges: list[Edge]) -> list[Edge] | None:
    """Turn an 8-cycle-count class into a spoke candidate.

    The class is used directly when it is a perfect matching; when it
    induces cycles instead (outer or inner rim), the spokes are exactly the
    non-class edges adjacent to it.
    """
    if _matching_partner(g, class_edges) is not None:
        return class_edges
    in_class = set(class_edges)
    touched = bytearray(g.n)
    for u, v in class_edges:
        touched[u] = touched[v] = 1
    candidate = [
        (u, v) for u, nbrs in enumerate(g.adj) for v in nbrs
        if u < v and (touched[u] or touched[v]) and (u, v) not in in_class
    ]
    if _matching_partner(g, candidate) is not None:
        return candidate
    return None


def _minimal_classes(parts: dict[int, list[Edge]]) -> list[list[Edge]]:
    smallest = min(len(v) for v in parts.values())
    return [parts[s] for s in sorted(parts) if len(parts[s]) == smallest]


# ---------------------------------------------------------------------------
# I-graph recognition


def exact_i_isomorphism(
    g: LabeledGraph, spokes: list[Edge]
) -> tuple[IParams, dict[int, str]] | Rejection:
    """Labeling of g as an I-graph given its spoke matching.

    The complement of the spokes must split into rims: two n-cycles, or
    cycles of two lengths, n in each.  One rim is labeled u_0, u_j, ...
    (`_i_label_attempt`): the first n-cycle, since a labeling from the other
    one swaps the rims into one from it, or else the first longest cycle.
    With several rims, k is read off where the inner walk from w_0 first
    meets a rim partner; all k it allows give one labeling up to a unit of
    Z_n, so only one is replayed against I(n,j,k) per inner orientation.
    """
    frame = _order_rejection(g, 2) or _frame(g, spokes)
    if isinstance(frame, Rejection):
        return frame
    partner, fnbrs, cycles = frame
    n = g.n // 2
    lengths = sorted({len(c) for c in cycles})
    if len(lengths) > 2:
        return Rejection("cycle-collection-shape", f"{len(lengths)} distinct cycle lengths")
    if len(lengths) == 1:
        if len(cycles) != 2 or len(cycles[0]) != n:
            return Rejection("cycle-collection-shape", "expected two n-cycles")
        rim, j = cycles[0], 1
    else:
        l1 = lengths[1]
        long_cycles = [c for c in cycles if len(c) == l1]
        short_total = sum(len(c) for c in cycles if len(c) != l1)
        if len(long_cycles) * l1 != n or short_total != n:
            return Rejection("cycle-collection-shape", "cycle lengths do not split n + n")
        rim, j = long_cycles[0], len(long_cycles)
    if 2 * j >= n:
        return Rejection("cycle-collection-shape", "too many rim cycles")
    return _certified(g, _i_label_attempt(n, j, rim, partner, fnbrs)) or Rejection(
        "labeling-inconsistent"
    )


def _i_label_attempt(
    n: int, j: int, rim: list[int], partner: list[int], fnbrs: list[tuple[int, int]]
) -> Iterator[tuple[IParams, dict[int, int]]]:
    """The candidate labelings with rim[t] as u_{tj}, in the order they are
    tried.

    A rim of all n u's labels every vertex, and k is read off one inner
    edge.  With several rims (j of them, each of l1 = n/j), the inner cycle
    through w_0 is walked towards each inner neighbour z of w_0 as w_0, w_k,
    w_2k, ...  As gcd(j,k) = 1, its first vertex after w_0 that is a rim
    partner comes at step j, as w_{jk} = w_{t0 j}, so k = t0 (mod l1).  Why
    one k is enough: every such k with gcd(j,k) = 1 has the same lattice
    <(l1,0), (-t0,j)> of (rim step, inner step) pairs that land on index 0,
    of index n, so their labelings differ by a unit of Z_n that carries one
    I(n,j,k) onto the other; if any replays, the smallest does, and only it
    is labeled, by `_i_complete`.  The shadow rim u_{tj+k} is walked from
    z's spoke partner both ways, and kept when it has the rim's length and
    the spoke partner of its t-th vertex is an inner neighbour of w_{tj}.
    """
    l1 = len(rim)
    phi = {v: t * j % n for t, v in enumerate(rim)}
    for t, v in enumerate(rim):
        if partner[v] in phi:  # a spoke inside the rim
            return
        phi[partner[v]] = n + t * j % n

    w0 = partner[rim[0]]
    if l1 == n:
        # the rim and its spoke partners already label everything
        k = _fold(phi[fnbrs[w0][0]] - phi[w0], n)
        if 0 < k and 2 * k < n:
            yield IParams(n, j, k), phi
        return

    # the inner walk leaves the rim, so the rim partners on it are the w's
    for z1 in fnbrs[w0]:
        ring = _walk(fnbrs, w0, z1) + [w0]
        if next(s for s in range(1, len(ring)) if ring[s] in phi) != j:
            continue
        k = (phi[ring[j]] - n) // j or l1
        while 2 * k < n and gcd(j, k) > 1:
            k += l1
        if 2 * k >= n:
            continue
        for p2 in fnbrs[partner[z1]]:
            zs = [partner[p] for p in _walk(fnbrs, partner[z1], p2)]
            if len(zs) == l1 and all(zs[t] in fnbrs[partner[v]] for t, v in enumerate(rim)):
                yield _i_complete(n, j, k, rim, zs, partner, fnbrs)


def _i_complete(
    n: int, j: int, k: int, rim: list[int], zs: list[int],
    partner: list[int], fnbrs: list[tuple[int, int]],
) -> tuple[IParams, dict[int, int]]:
    """The candidate labeling of I(n,j,k) from the rim and the shadow's
    partners zs[t] = w_{tj+k}: each inner cycle not yet labeled is walked
    from w_{tj} through zs[t] as w_{tj}, w_{tj+k}, w_{tj+2k}, ..., and each
    w's spoke partner is the u of its index.  In a labeling that replays,
    w_0 and w_j lie on two inner cycles (gcd(n,j,k) = 1), so both are walk
    starts: the rim runs u_0, u_j, ... as labeled, not mirrored."""
    phi: dict[int, int] = {}
    for t, v in enumerate(rim):
        if partner[v] not in phi:
            for s, w in enumerate(_walk(fnbrs, partner[v], zs[t])):
                i = (t * j + s * k) % n
                phi[w] = n + i
                phi[partner[w]] = i
    return IParams(n, j, k), phi


def extend_i(g: LabeledGraph, spokes: list[Edge]) -> Certificate | Rejection:
    """Extend a spoke matching to a full I-graph certificate."""
    res = exact_i_isomorphism(g, spokes)
    return res if isinstance(res, Rejection) else _certificate(*res)


def _constant_branch(g: LabeledGraph, family: str) -> Certificate | Rejection:
    """Every edge of g lies on as many 8-cycles, so there is no spoke class
    to pull out.  The paper lists every such member (`tables`): search each
    canonical member of g's order once, in list order (DP(10,3), the twin
    of DP(10,2), is not searched again), and replay the first isomorphism."""
    if family == I_GRAPH:
        members = [IParams(*p) for p in CYCLE_REGULAR_I]
    else:
        members = list(dict.fromkeys(dp_canonical_params(DPParams(*p)) for p in CYCLE_REGULAR_DP))
    generate = generate_i_graph if family == I_GRAPH else generate_dp
    isos = ((p, find_isomorphism(g, generate(p))) for p in members if member_order(p) == g.n)
    # labeled in vertex order
    res = _certified(g, ((p, {v: iso[v] for v in range(g.n)}) for p, iso in isos if iso is not None))
    if res is None:
        return Rejection("not-isomorphic", "constant 8-cycle count but no stored match")
    return _certificate(*res)


# ---------------------------------------------------------------------------
# DP-graph recognition


def exact_dp_isomorphism(
    g: LabeledGraph, spokes: list[Edge]
) -> tuple[DPParams, dict[int, str]] | Rejection:
    """Labeling of g as DP(n,k) given its spoke matching.

    Each n-cycle of the spoke frame, in frame order, is tried as the u-rim
    u_0, u_1, ..., with the w's as its spoke partners, and each x-rim walk
    of `_dp_walks` gives k and the x's, its s-th vertex x_{s-k}, and their
    partners the y's.  DP isomorphisms beyond the even-n twin pair exist
    (their full characterization is open), so the candidates are
    stable-sorted by canonical k, then by k, which makes the result a
    function of the isomorphism class.  Each labeling is built only when
    its turn comes, and the first one that replays against DP(n,k) wins.
    """
    frame = _order_rejection(g, 4) or _frame(g, spokes)
    if isinstance(frame, Rejection):
        return frame
    partner, fnbrs, cycles = frame
    n = g.n // 4
    options = [
        (DPParams(n, k), rim, walk)
        for rim in cycles
        if len(rim) == n
        for k, walk in _dp_walks(n, rim, partner, fnbrs)
    ]
    options.sort(key=lambda opt: (dp_canonical_params(opt[0]).k, opt[0].k))

    def labelings() -> Iterator[tuple[DPParams, dict[int, int]]]:
        for p, rim, walk in options:
            phi: dict[int, int] = {}
            for t, v in enumerate(rim):
                phi[v] = t  # u_t
                phi[partner[v]] = n + t  # w_t
            for s, v in enumerate(walk):
                phi[v] = 2 * n + (s - p.k) % n  # x_{s-k}
                phi[partner[v]] = 3 * n + (s - p.k) % n  # y_{s-k}
            yield p, phi

    return _certified(g, labelings()) or Rejection("labeling-inconsistent")


def _dp_walks(
    n: int, rim: list[int], partner: list[int], fnbrs: list[tuple[int, int]]
) -> list[tuple[int, list[int]]]:
    """(k, x-rim walk from x_{-k}) for each even arc, with `rim` as the
    u-rim.  The inner neighbours a, b of w_0 are y_{+-k}, so their spoke
    partners x_a, x_b cut the x-rim into arcs of 2k and n - 2k.  The x-rim
    is walked in the frame's orientation ("forward") from x_b forward and
    from x_a backward (k half the forward arc from x_b to x_a), then from
    x_b backward and from x_a forward (k half the other arc).  The order of
    the last two never decides: at k = n/4 they are the first two moved by
    x_i -> x_{i+n/2}, which fixes every u_i and w_i, and no automorphism
    that fixes them all reverses the x-rim."""
    a, b = fnbrs[partner[rim[0]]]
    xa, xb = partner[a], partner[b]
    walk = _walk(fnbrs, xb, fnbrs[xb][0])
    if len(walk) != n or xa not in walk:
        return []
    low = walk.index(min(walk))
    if walk[(low + 1) % n] != fnbrs[walk[low]][0]:  # against the frame's orientation
        walk = walk[:1] + walk[:0:-1]
    arc = walk.index(xa)
    return [
        (span // 2, [walk[(start + step * s) % n] for s in range(n)])
        for span, start, step in ((arc, 0, 1), (arc, arc, -1), (n - arc, 0, -1), (n - arc, arc, 1))
        if span % 2 == 0
    ]


def extend_dp(g: LabeledGraph, spokes: list[Edge]) -> Certificate | Rejection:
    """Extend a spoke matching to a full DP-graph certificate."""
    res = exact_dp_isomorphism(g, spokes)
    return res if isinstance(res, Rejection) else _certificate(*res)


# ---------------------------------------------------------------------------
# the cubic pipeline shared by I- and DP-graphs


def _i_components(g: LabeledGraph, comps: list[list[int]]) -> Certificate | Rejection:
    """An I-graph with gcd(n,j,k) = d > 1 is d identical copies: recognize
    each component and merge the certificates into one for d copies.

    Each component's labeling is carried onto the canonical parameters by
    the unit a of `canonical_i_unit`, which multiplies every index by a and
    swaps the rims when a*j folds above a*k; copy r then takes the indices
    congruent to r mod d."""
    certs = []
    for comp in comps:
        res = _recognize_cubic(induced_subgraph(g, comp)[0], (I_GRAPH,))
        if isinstance(res, Rejection):
            return res
        certs.append(res)
    canon_set = {c.canonical_params for c in certs}
    if len(canon_set) != 1:
        return Rejection("not-isomorphic", "components are not identical I-graphs")
    cn, cj, ck = canon_set.pop()
    d = len(comps)
    merged = IParams(d * cn, d * cj, d * ck)
    phi: dict[int, int] = {}
    for r, (comp, cert) in enumerate(zip(comps, certs)):
        p = IParams(*cert.params)
        ids = {vertex_name(p, v): v for v in range(len(comp))}
        _, a = canonical_i_unit(p)
        swap = _fold(a * p.j, p.n) > _fold(a * p.k, p.n)
        for local_v, old_v in enumerate(comp):
            side, idx = divmod(ids[cert.labeling[local_v]], p.n)
            phi[old_v] = (side ^ swap) * merged.n + r + (a * idx) % p.n * d
    res = _certified(g, [(merged, phi)])
    if res is None:
        return Rejection("labeling-inconsistent", "component merge failed verification")
    return _certificate(*res)


def _from_partition(
    g: LabeledGraph, family: str, parts: dict[int, list[Edge]]
) -> Certificate | Rejection:
    """Pull the spokes out of the minimal 8-cycle-count classes and extend."""
    if len(parts) == 1:
        return _constant_branch(g, family)
    extend = extend_i if family == I_GRAPH else extend_dp
    last: Certificate | Rejection = Rejection("partition-shape", "no spoke class found")
    for cls in _minimal_classes(parts):
        spokes = _spoke_candidate(g, cls)
        if spokes is None:
            continue
        last = extend(g, spokes)
        if isinstance(last, Certificate):
            break
    return last


def _recognize_cubic(g: LabeledGraph, families: tuple[str, ...]) -> Certificate | Rejection:
    """Try each of `families` (I before DP) on one octagon partition.

    Each family keeps its own order and connectivity preconditions; the
    partition is computed at most once, for a connected input.  The first
    certificate wins; when every family fails, the first one's rejection is
    returned.
    """
    if not is_regular(g, 3):
        return Rejection("not-cubic")
    comps = parts = None
    rejections = []
    for family in families:
        res = _order_rejection(g, 2 if family == I_GRAPH else 4)
        if res is None:
            comps = comps or connected_components(g)
            if len(comps) == 1:
                parts = parts or octagon_partition(g)
                res = _from_partition(g, family, parts)
            elif family == I_GRAPH:
                res = _i_components(g, comps)
            else:
                res = Rejection("disconnected", "DP-graphs are connected")
        if isinstance(res, Certificate):
            return res
        rejections.append(res)
    return rejections[0]


def recognize_i_graph(g: LabeledGraph) -> Certificate | Rejection:
    """Robust I-graph recognition: partition edges by their 8-cycle count,
    pull out the spokes, extend, and verify."""
    return _recognize_cubic(g, (I_GRAPH,))


def recognize_dp(g: LabeledGraph) -> Certificate | Rejection:
    """Robust DP-graph recognition; same pipeline as the I-graph case with
    n = |V|/4 and the two stored cycle-regular members."""
    return _recognize_cubic(g, (DP_GRAPH,))


# ---------------------------------------------------------------------------
# folded-cube recognition


@dataclass
class DiagonalState:
    """Final peeling state: identified diagonals and the pivot count."""

    diagonals: list[Edge]
    pivots: int


def determine_diagonals(g: LabeledGraph) -> DiagonalState | Rejection:
    """Peel off the diagonal matching of a would-be folded cube: the paper's
    recognition step, kept as the reference that the tests hold
    `extend_fq`'s certificates against.  No recognizer calls it.

    Seeds one arbitrary edge (arc-transitivity of genuine folded cubes
    makes the choice immaterial), then repeatedly takes an identified
    diagonal from the lowest-degree bucket, finds the 4-cycles through it,
    marks the opposite edges as diagonals and deletes the side edges.
    """
    if g.n < 2 or g.m == 0:
        return Rejection("order", "too small to peel")
    if not g.adj[0]:
        return Rejection("disconnected", "vertex 0, the seed, is isolated")
    adj = [set(nb) for nb in g.adj]
    seed = (0, g.adj[0][0])
    deg0 = len(g.adj[0])
    buckets: dict[int, dict[Edge, None]] = {deg0: {seed: None}}
    bucket_of: dict[Edge, int] = {seed: deg0}  # the one bucket holding each edge
    finished: dict[Edge, None] = {}
    pivots = 0
    max_pivots = 2 * g.m + 16

    while True:
        live = [d for d in buckets if buckets[d]]
        if not live:
            break
        i = min(live)
        uv = next(iter(buckets[i]))
        del buckets[i][uv]
        del bucket_of[uv]
        finished[uv] = None
        pivots += 1
        if pivots > max_pivots:
            return Rejection("peeling-stuck", "pivot budget exceeded")
        u, v = uv
        for a in g.adj[u]:
            if a == v or a not in adj[u]:
                continue
            for b in g.adj[v]:
                if b == u or b == a or b not in adj[v]:
                    continue
                if b in adj[a]:
                    adj[u].discard(a)
                    adj[a].discard(u)
                    adj[v].discard(b)
                    adj[b].discard(v)
                    da, db = len(adj[a]), len(adj[b])
                    if da != db:
                        return Rejection(
                            "peeling-stuck", f"diagonal endpoints at degrees {da} != {db}"
                        )
                    ab = (a, b) if a < b else (b, a)
                    old = bucket_of.pop(ab, None)
                    if old is not None:
                        del buckets[old][ab]
                    if ab in finished:
                        del finished[ab]
                    if da <= 1:
                        finished[ab] = None
                    else:
                        buckets.setdefault(da, {})[ab] = None
                        bucket_of[ab] = da
                    break
    return DiagonalState(sorted(finished), pivots)


def extend_fq(g: LabeledGraph) -> Certificate | Rejection:
    """Folded-cube recognition on four or more vertices: label every vertex
    from one BFS of the whole graph out of vertex 0, and replay.

    FQ_n is the Cayley graph of Z_2^(n-1) on e_1, ..., e_(n-1) and their
    sum d, so a vertex at distance r from 0 is a sum of r distinct
    generators: a word of n bits, with d as bit `size`.  Vertex 0 gets the
    empty word, its first neighbour d, and its other neighbours, in
    ascending id order, size/2, ..., 1.  A vertex further out gets the OR
    of the words of its neighbours one layer closer to 0.  At r = n/2 (n
    even) a vertex has two words, a set of r generators and its complement;
    only the lower words inside the first one's set are joined.  In
    FQ_4 = K_4,4 that still leaves the three vertices at distance 2 open, so
    they get 3, 5 and 6 in ascending id order.  A word holding d stands for
    the complement of its other bits.  The stabiliser of 0 permutes the n
    generators, so on a member every such first step extends to an
    isomorphism; `_replays` decides.  O(|E|).  An unreached vertex rejects
    the graph as disconnected.
    """
    size = g.n
    if size < 4 or size & (size - 1):
        return Rejection("order", f"|V| = {size} is not a power of two")
    n = size.bit_length()  # dimension: |V| = 2^(n-1)
    if not is_regular(g, n):
        return Rejection("not-regular", f"expected an {n}-regular graph")
    adj = g.adj
    dist = bfs(adj, 0)
    if len(dist) != size:
        return Rejection("disconnected")
    word = [0] * size
    for i, y in enumerate(adj[0]):
        word[y] = size >> i
    if n == 4:  # in K_4,4 the half-distance rule cannot tell layer 2 apart
        for x, w in zip(sorted(x for x, r in dist.items() if r == 2), (3, 5, 6)):
            word[x] = w
    half = 0 if n % 2 else n // 2
    for x, r in dist.items():
        if r < 2 or (n == 4 and r == 2):
            continue
        below = [word[y] for y in adj[x] if dist[y] < r]
        if r == half:
            first = below[0]
            below = [y for y in below if (y | first).bit_count() <= r]
        w = 0
        for y in below:
            w |= y
        word[x] = w
    mask = size - 1
    labels = {v: (w & mask) ^ mask if w & size else w for v, w in enumerate(word)}
    res = _certified(g, [(FQParams(n), labels)])
    if res is None:
        return Rejection("not-isomorphic", "certificate failed verification")
    return _certificate(*res)


def recognize_folded_cube(g: LabeledGraph) -> Certificate | Rejection:
    """Robust folded-cube recognition: the empty graph, FQ_1 = K_1 and
    FQ_2 = K_2 here, every larger order by `extend_fq`."""
    size = g.n
    if size == 0:
        return Rejection("order", "empty graph")
    if size in (1, 2):  # FQ_1 = K_1 and FQ_2 = K_2, labeled by identity
        res = _certified(g, [(FQParams(size), {v: v for v in range(size)})])
        return _certificate(*res) if res else Rejection("not-isomorphic")
    return extend_fq(g)


def recognize(g: LabeledGraph) -> Certificate | Rejection:
    """Family-agnostic recognition.

    The folded-cube degree/order precondition is the cheapest filter and is
    disjoint from the cubic families except for K_4 = FQ_3, so at most one
    expensive path runs: folded cube when the pattern fits, otherwise
    I-graph then DP-graph on one shared octagon partition.
    """
    size = g.n
    if size in (1, 2) or (
        size >= 4 and size & (size - 1) == 0 and is_regular(g, size.bit_length())
    ):
        return recognize_folded_cube(g)
    if is_regular(g, 3):
        return _recognize_cubic(g, (I_GRAPH, DP_GRAPH))
    return Rejection("not-cubic", "degree/order pattern fits no supported family")
