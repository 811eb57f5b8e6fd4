"""Per-orbit 8-cycle counts of I- and DP-graphs, the published lists of
their members with a constant per-edge 8-cycle count, and the
cycle-regularity constants of folded cubes, counted from cycle shapes.

I(n,j,k) and DP(n,k) are Z_n-voltage lifts of small base graphs (Gross and
Tucker, Topological Graph Theory, 1987).  The base graph of I has vertices
u and w, a loop of voltage j at u, a loop of voltage k at w and a spoke u-w
of voltage 0.  The base graph of DP has vertices u, w, x and y, loops of
voltage 1 at u and x, spokes u-w and x-y of voltage 0, and two edges w-y of
voltages +k and -k.  An 8-cycle of a member through a given edge is exactly
one closed non-backtracking walk of 8 darts in the base graph that starts
with that edge's dart, whose closing voltage a*j + b*k is 0 mod n and whose
8 lifted vertices are distinct.  The walks depend on the family alone, so
they are listed once, and a member only tests them.  The paper classifies
the same 8-cycles by hand; the tests hold these counts to that
classification and to the cycle oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from math import perm

from .cycles import OctagonTriple
from .families import DPParams, IParams

# a base-graph edge: tail and head side, voltage as the coefficients of
# (j, k) (DP-graphs have j = 1); the first three are the seeds of the outer,
# spoke and inner orbits, the edges u_0 u_j, u_0 w_0 and w_0 w_k (w_0 y_k
# for DP) of `scans.measured_octagon`
BaseEdge = tuple[str, str, int, int]
# a vertex of a walk: side, and the coefficients of j and k of its voltage
Term = tuple[str, int, int]

_I_BASE: tuple[BaseEdge, ...] = (("u", "u", 1, 0), ("u", "w", 0, 0), ("w", "w", 0, 1))
_DP_BASE: tuple[BaseEdge, ...] = (
    ("u", "u", 1, 0), ("u", "w", 0, 0), ("w", "y", 0, 1),
    ("x", "x", 1, 0), ("x", "y", 0, 0), ("w", "y", 0, -1),
)


def _reverse(dart: BaseEdge) -> BaseEdge:
    tail, head, a, b = dart
    return head, tail, -a, -b


@cache
def _closed_words(base: tuple[BaseEdge, ...], seed: int) -> tuple[tuple[Term, ...], ...]:
    """The non-backtracking walks of 8 darts that start with the dart of
    base[seed] and end at its tail, each as the 8 vertices it enters, the
    start last: 59, 62 and 59 walks for I, 29, 34 and 29 for DP."""
    darts = base + tuple(map(_reverse, base))
    walks = [(base[seed],)]
    for _ in range(7):
        walks = [walk + (d,) for walk in walks for d in darts
                 if d[0] == walk[-1][1] and d != _reverse(walk[-1])]
    words = []
    for walk in walks:
        if walk[-1][1] == walk[0][0]:
            _, heads, steps_j, steps_k = zip(*walk)
            words.append(tuple(zip(heads, accumulate(steps_j), accumulate(steps_k))))
    return tuple(words)


def _octagon(base: tuple[BaseEdge, ...], n: int, j: int, k: int) -> OctagonTriple:
    """Per seed, the closed words that lift to 8-cycles of the member: the
    closing voltage is 0 mod n and the 8 lifted ids are distinct."""
    offset = {side: t * n for t, side in enumerate("uwxy")}  # the id convention

    def lifts(word: tuple[Term, ...]) -> bool:
        _, a, b = word[-1]
        return (a * j + b * k) % n == 0 and len(
            {offset[side] + (a * j + b * k) % n for side, a, b in word}) == 8

    return OctagonTriple(*(sum(map(lifts, _closed_words(base, seed))) for seed in range(3)))


def predict_i_octagon(p: IParams) -> OctagonTriple:
    """Predicted per-orbit 8-cycle triple (outer, spoke, inner) of I(n,j,k),
    for any 1 <= j, k < n/2."""
    return _octagon(_I_BASE, p.n, p.j, p.k)


def predict_dp_octagon(p: DPParams) -> OctagonTriple:
    """Predicted per-orbit 8-cycle triple of DP(n,k)."""
    return _octagon(_DP_BASE, p.n, 1, p.k)


#: Published [1,lambda,8]-cycle regular I-graphs (canonical parameters).
CYCLE_REGULAR_I: dict[tuple[int, int, int], int] = {
    (3, 1, 1): 0,
    (4, 1, 1): 4,
    (5, 1, 2): 8,
    (8, 1, 3): 8,
    (10, 1, 2): 8,
    (10, 1, 3): 8,
    (12, 1, 5): 8,
    (13, 1, 5): 8,
    (24, 1, 5): 8,
    (26, 1, 5): 8,
}

#: Published [1,lambda,8]-cycle regular DP-graphs (raw parameter pairs).
CYCLE_REGULAR_DP: dict[tuple[int, int], int] = {
    (5, 2): 8,
    (10, 2): 8,
    (10, 3): 8,
}


class UnsupportedPatternError(ValueError):
    pass


@dataclass(frozen=True)
class FqLambda:
    """Cycle-regularity constant of a folded cube.

    value None means not [l,lambda,m]-cycle regular; only
    `published_fq_lambda` gives it, for FQ_4 at (l,m) = (2,6).  conjectured
    marks the published [1,lambda,8] values, which rest on a conjectured
    cubic that the oracle refutes at n = 5, 7 and every n >= 9.
    """

    value: int | None
    conjectured: bool = False

    @property
    def is_regular(self) -> bool:
        return self.value is not None


@cache
def _fq_shapes(l: int, m: int) -> tuple[tuple[tuple[int, bool, bool], int], ...]:
    """The closed words of m generators through a fixed path of l edges,
    named in order of first use, counted by their number r of names,
    whether every count is even, and whether they are m-cycles at n = r,
    where all n counts odd also close.  A word grows by its prefix sums
    over the names, which must differ: no proper subword is all even."""
    shapes: Counter[tuple[int, bool, bool]] = Counter()

    def grow(sums: list[int], r: int) -> None:
        if len(sums) <= m:
            for name in range(r + 1):
                s = sums[-1] ^ 1 << name
                if s not in sums[len(sums) == m:]:  # the whole word may close
                    grow(sums + [s], max(r, name + 1))
            return
        full = (1 << r) - 1
        if sums[-1] in (0, full):
            odd_inside = any(a ^ b == full for i, a in enumerate(sums) for b in sums[i + 1:i + m])
            shapes[r, sums[-1] == 0, not odd_inside] += 1

    grow([(1 << i) - 1 for i in range(l + 1)], l)
    return tuple(shapes.items())


def fq_lambda(n: int, l: int, m: int) -> FqLambda:
    """Cycle-regularity constant of FQ_n for the supported (l,m) patterns.

    FQ_n (n >= 3) is the Cayley graph of Z_2^(n-1) on e_1, ..., e_(n-1)
    and their sum, and it is 2-arc-transitive, so the m-cycles through one
    path of l <= 2 edges give lambda.  Such a cycle is a word of m
    generators that closes, with every count even or with all n counts
    odd, and has no closed proper subword.  A shape of `_fq_shapes` with
    r names stands for (n-l)!/(n-r)! words: with every count even at any
    n > r, and at n = r when it is a cycle there.
    """
    if n < 1:
        raise UnsupportedPatternError(f"dimension must be >= 1, got {n}")
    if (l, m) not in ((1, 4), (1, 6), (2, 6), (1, 8)):
        raise UnsupportedPatternError(f"no closed form for (l,m) = ({l},{m})")
    if n < 3:  # FQ_1 = K_1 and FQ_2 = K_2
        return FqLambda(0)
    return FqLambda(sum(count * perm(n - l, r - l) for (r, even, at_r), count in _fq_shapes(l, m)
                        if even and r < n or at_r and r == n))


def published_fq_lambda(n: int, l: int, m: int) -> FqLambda:
    """The cycle-regularity constants exactly as printed in the source
    tables, including the two (2,6) values and the conjectured (1,8) cubic
    that the oracle refutes.  Meant for discrepancy reporting, never for
    recognition.

    The two (2,6) values are refuted by exhaustive counting (and, for
    n = 6, by arithmetic against the published [1,200,6] constant): FQ_4
    is [2,12,6]-cycle regular, not irregular, and FQ_6 is [2,40,6], not
    [2,2,6].  `fq_lambda` gives the counted values."""
    lam = fq_lambda(n, l, m)
    if (l, m) == (2, 6) and n == 4:
        return FqLambda(None)
    if (l, m) == (2, 6) and n == 6:
        return FqLambda(2)
    if (l, m) == (1, 8):
        # the printed specials n <= 4, 6 and 8 are the settled values
        cubic = 27 * n**3 - 133 * n**2 + 210 * n - 104
        return FqLambda(lam.value if n in (1, 2, 3, 4, 6, 8) else cubic, conjectured=True)
    return lam
