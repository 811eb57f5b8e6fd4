"""I(n,j,k), DP(n,k) and FQ_n, each defined once by `member_edges`; the
generators of those families and of G(n,k) and Q_n; and the
parameter-level isomorphism rules of the families.

Recognition replays labelings against `member_edges`, and the 8-cycle
tables look their pattern edges up in it, so the adjacency of each family
is written only there.  Vertex ids follow one convention, which also
decides each vertex's family name (`vertex_name`) and each edge's role:

* I(n,j,k):  u_i = i, w_i = n + i; outer edges join two u's, inner edges
  two w's, and spoke u_i w_i is the edge (a, b) with b - a = n.
* DP(n,k):   u_i = i, w_i = n + i, x_i = 2n + i, y_i = 3n + i.
* Q_n, FQ_n: ids are the binary strings themselves, bit b of the integer
  holding string position b + 1; the edge (a, b) runs along dimension
  a ^ b, and the diagonal partner of v is its bitwise complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .graph import Edge, LabeledGraph, build_graph


class ParamOutOfRangeError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class IParams:
    n: int
    j: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ParamOutOfRangeError(f"n must be >= 3, got {self.n}")
        for name, val in (("j", self.j), ("k", self.k)):
            if not 1 <= val or 2 * val >= self.n:
                raise ParamOutOfRangeError(
                    f"{name} must satisfy 1 <= {name} < n/2, got {val} for n={self.n}"
                )


@dataclass(frozen=True, order=True)
class DPParams:
    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ParamOutOfRangeError(f"n must be >= 3, got {self.n}")
        if not 1 <= self.k or 2 * self.k >= self.n:
            raise ParamOutOfRangeError(
                f"k must satisfy 1 <= k < n/2, got {self.k} for n={self.n}"
            )


@dataclass(frozen=True, order=True)
class FQParams:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParamOutOfRangeError(f"dimension must be >= 1, got {self.n}")


Params = IParams | DPParams | FQParams


def vertex_name(p: Params, v: int) -> str:
    """Family name of generator vertex `v`: u3/w7 for I(n,j,k), u/w/x/y
    with an index for DP(n,k), and the (n-1)-bit string of v for FQ_n
    ("" for FQ_1).  Q_n names its vertices as FQ_{n+1} does."""
    if isinstance(p, FQParams):
        width = p.n - 1
        return format(v, f"0{width}b")[::-1] if width else ""
    side, idx = divmod(v, p.n)
    return "uwxy"[side] + str(idx)


def member_order(p: Params) -> int:
    """Vertex count of the member with parameters p: 2n, 4n or 2^(n-1)."""
    if isinstance(p, IParams):
        return 2 * p.n
    if isinstance(p, DPParams):
        return 4 * p.n
    return 1 << (p.n - 1)


def member_edges(p: Params) -> tuple[int, list[Edge]]:
    """The one definition of each family: the vertex count and the edge list
    of I(n,j,k), DP(n,k) or FQ_n, on the ids of the module docstring.

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
        edges = _cube_edges(width)
        if width >= 2:
            mask = (1 << width) - 1
            edges.extend((v, v ^ mask) for v in range(1 << (width - 1)))
    return member_order(p), edges


def _cube_edges(width: int) -> list[Edge]:
    return [
        (v, v ^ (1 << b))
        for v in range(1 << width)
        for b in range(width)
        if not v & (1 << b)
    ]


def generate_i_graph(p: IParams) -> LabeledGraph:
    """I(n,j,k): 2n vertices, 3n edges, cubic; connected iff gcd(n,j,k) == 1
    (for d > 1 it falls apart into d copies of the smaller I-graph, by
    design)."""
    return build_graph(*member_edges(p))


def generate_gp(n: int, k: int) -> LabeledGraph:
    """Generalized Petersen graph G(n,k), the I-graph with j = 1."""
    return generate_i_graph(IParams(n, 1, k))


def generate_dp(p: DPParams) -> LabeledGraph:
    """DP(n,k): two GP-like copies with crossed inner edges."""
    return build_graph(*member_edges(p))


def generate_hypercube(n: int) -> LabeledGraph:
    """Q_n on 2^n vertices; ids differing in exactly one bit are adjacent."""
    if n < 0:
        raise ParamOutOfRangeError(f"dimension must be >= 0, got {n}")
    return build_graph(1 << n, _cube_edges(n))


def generate_folded_cube(p: FQParams) -> LabeledGraph:
    """FQ_n: 2^(n-1) vertices of degree n for n >= 3.  FQ_1 is K_1 and FQ_2
    is K_2."""
    return build_graph(*member_edges(p))


def _fold(x: int, n: int) -> int:
    x %= n
    return min(x, n - x)


def canonical_i_unit(p: IParams) -> tuple[IParams, int]:
    """Lexicographically smallest (n,j,k) in the isomorphism class of p, and
    the first unit a that reaches it.

    I(n,j,k) ~ I(n,j',k') iff {j',k'} = {aj, +-ak} mod n for some a coprime
    to n (Horvat, Pisanski and Zitnik, "Isomorphism checking of I-graphs",
    2012); folding representatives into (0, n/2) absorbs the sign choice, so
    a plain scan over the multipliers suffices (n is small, clarity wins).
    """
    n = p.n
    best: tuple[int, int] | None = None
    unit = 0
    for a in range(1, n):
        if gcd(a, n) != 1:
            continue
        pair = tuple(sorted((_fold(a * p.j, n), _fold(a * p.k, n))))
        if best is None or pair < best:
            best, unit = pair, a
    assert best is not None
    return IParams(n, best[0], best[1]), unit


def canonical_i_params(p: IParams) -> IParams:
    """Lexicographically smallest (n,j,k) in the isomorphism class of p
    (`canonical_i_unit`)."""
    return canonical_i_unit(p)[0]


def dp_even_twin(p: DPParams) -> DPParams | None:
    """For even n, the isomorphic partner DP(n, n/2 - k); None for odd n."""
    if p.n % 2 != 0:
        return None
    return DPParams(p.n, p.n // 2 - p.k)


def dp_canonical_params(p: DPParams) -> DPParams:
    """Representative with the smaller k of the even-n twin pair."""
    twin = dp_even_twin(p)
    if twin is not None and twin.k < p.k:
        return twin
    return p

