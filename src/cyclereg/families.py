"""I(n,j,k), DP(n,k) and FQ_n, each defined once by `member_adjacency`;
the generators of those families and of G(n,k) and Q_n; and the
parameter-level isomorphism rules of the families.

The generators wrap the rows of `member_adjacency` and recognition replays
labelings against them, so the adjacency of each family is written only
there.  (`tables` counts 8-cycles on the voltage base graphs of I and DP;
the tests hold those counts to the oracle on the generated members.)
Vertex ids follow one convention, which also decides each vertex's family name
(`vertex_name`) and each edge's role:

* I(n,j,k):  u_i = i, w_i = n + i; outer edges join two u's, inner edges
  two w's, and spoke u_i w_i is the edge (a, b) with b - a = n.
* DP(n,k):   u_i = i, w_i = n + i, x_i = 2n + i, y_i = 3n + i.
* Q_n, FQ_n: ids are the binary strings themselves, bit b of the integer
  holding string position b + 1; the edge (a, b) runs along dimension
  a ^ b, and the diagonal partner of v is its bitwise complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from math import gcd
from typing import Iterator

from .graph import LabeledGraph


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


def member_adjacency(p: Params) -> Iterator[tuple[int, ...]]:
    """The one definition of each family: the sorted neighbour tuple of each
    member id of I(n,j,k), DP(n,k) or FQ_n in turn, on the ids of the module
    docstring, each id one int object.  Rows are made as they are read.

    I(n,j,k): u_i ~ u_{i-j}, u_{i+j}, w_i and w_i ~ u_i, w_{i-k}, w_{i+k}.
    DP(n,k): rims u_i ~ u_{i+-1} and x_i ~ x_{i+-1}, spokes u_i w_i and
    x_i y_i, and the crossed inner edges w_i y_{i+k}, y_i w_{i+k}.
    FQ_n: Q_{n-1} plus the matching of each id with its bitwise complement,
    left out of FQ_2, where it would repeat the lone cube edge.
    """
    ids = list(range(member_order(p)))
    if isinstance(p, FQParams):
        return _cube_rows(ids, p.n - 1, folded=True)
    n = p.n
    if isinstance(p, IParams):
        u, w = ids[:n], ids[n:]
        return chain(zip(*_ring(u, p.j), w), zip(u, *_ring(w, p.k)))
    u, w, x, y = ids[:n], ids[n:2 * n], ids[2 * n:3 * n], ids[3 * n:]
    return chain(zip(*_ring(u, 1), w), zip(u, *_ring(y, p.k)),
                 zip(*_ring(x, 1), y), zip(*_ring(w, p.k), x))


def _ring(ring: list[int], s: int) -> tuple[list[int], list[int]]:
    """ring[i - s] and ring[i + s] (indices mod len(ring)) for every i, the
    smaller first, as two lists; ring ascending and 0 < 2s < len(ring)."""
    n = len(ring)
    return (ring[s:2 * s] + ring[:n - 2 * s] + ring[:s],
            ring[n - s:] + ring[2 * s:] + ring[n - 2 * s:n - s])


def _cube_rows(ids: list[int], width: int, folded: bool) -> Iterator[tuple[int, ...]]:
    """The rows of Q_width on `ids` = [0, 1, ...] (with `folded`, width >= 2,
    of FQ_(width+1)), a block at a time: the top two bits of an id pick its
    block, its neighbours across them sit at its place in the blocks one bit
    away, its complement at the mirror place in the opposite block, and the
    rest are its row of Q_(width-2) moved into its block.  Only those rows,
    a quarter of all, are held."""
    if not width:
        return iter([()])
    top = min(width, 2)
    size = 1 << (width - top)
    rows = list(_cube_rows(ids, width - top, False))
    blocks = [ids[i * size:(i + 1) * size] for i in range(1 << top)]

    def block(hi: int) -> Iterator[tuple[int, ...]]:
        cols = {hi ^ 1 << b: blocks[hi ^ 1 << b] for b in range(top)}
        if folded and top == 2:
            cols[3 - hi] = blocks[3 - hi][::-1]
        down, up = ([cols[x] for x in sorted(cols) if (x < hi) == below] for below in (True, False))
        own = rows if hi == 0 else map(tuple, map(partial(map, blocks[hi].__getitem__), rows))
        return map(tuple.__add__, map(tuple.__add__, zip(*down) if down else repeat(()), own),
                   zip(*up) if up else repeat(()))

    return chain.from_iterable(map(block, range(1 << top)))


def generate_i_graph(p: IParams) -> LabeledGraph:
    """I(n,j,k): 2n vertices, 3n edges, cubic; connected iff gcd(n,j,k) == 1
    (for d > 1 it falls apart into d copies of the smaller I-graph, by
    design)."""
    return LabeledGraph(member_order(p), tuple(member_adjacency(p)))


def generate_gp(n: int, k: int) -> LabeledGraph:
    """Generalized Petersen graph G(n,k), the I-graph with j = 1."""
    return generate_i_graph(IParams(n, 1, k))


def generate_dp(p: DPParams) -> LabeledGraph:
    """DP(n,k): two GP-like copies with crossed inner edges."""
    return LabeledGraph(member_order(p), tuple(member_adjacency(p)))


def generate_hypercube(n: int) -> LabeledGraph:
    """Q_n on 2^n vertices; ids differing in exactly one bit are adjacent
    (the folded-cube rule without the diagonal)."""
    if n < 0:
        raise ParamOutOfRangeError(f"dimension must be >= 0, got {n}")
    return LabeledGraph(1 << n, tuple(_cube_rows(list(range(1 << n)), n, folded=False)))


def generate_folded_cube(p: FQParams) -> LabeledGraph:
    """FQ_n: 2^(n-1) vertices of degree n for n >= 3.  FQ_1 is K_1 and FQ_2
    is K_2."""
    return LabeledGraph(member_order(p), tuple(member_adjacency(p)))


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

