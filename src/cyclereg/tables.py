"""Per-orbit 8-cycle counts of I- and DP-graphs, the published lists of
their members with a constant per-edge 8-cycle count, and the closed-form
cycle-regularity constants for folded cubes.

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

from dataclasses import dataclass
from functools import cache
from itertools import accumulate

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
    """Closed-form cycle-regularity constant of a folded cube.

    value None means the graph is provably not [l,lambda,m]-cycle regular
    for the requested pattern (only FQ_4 with (l,m) = (2,6)).  conjectured
    marks the published [1,lambda,8] values, which rest on a conjectured
    cubic that the oracle refutes at n = 5, 7 and every n >= 9.
    """

    value: int | None
    conjectured: bool = False

    @property
    def is_regular(self) -> bool:
        return self.value is not None


def fq_lambda(n: int, l: int, m: int) -> FqLambda:
    """Cycle-regularity constant of FQ_n for the supported (l,m) patterns,
    all settled.

    (1,8): FQ_n is arc-transitive, so one edge's 8-cycles give lambda.  An
    8-cycle through an edge is a closed word of 8 generators (e_1, ...,
    e_(n-1) and their sum) with no closed proper subword.  Words that use
    every generator an even number of times span at most 4 of them and are
    the 8-cycles of the hypercube Q_n through an edge, (n-1)(n-2)(27n-79)
    of them for n >= 5.  Words that use all n generators an odd number of
    times need n even and n <= 8: 1920 at n = 6 and 7! = 5040 at n = 8.

    Two published (2,6) special values are corrected here because they are
    refuted by exhaustive counting (and, for n = 6, by arithmetic against
    the published [1,200,6] constant): FQ_4 is [2,12,6]-cycle regular, not
    irregular, and FQ_6 is [2,40,6], not [2,2,6].  The values as printed
    are available from `published_fq_lambda`, and so is the published
    conjectured cubic for (1,8).
    """
    if n < 1:
        raise UnsupportedPatternError(f"dimension must be >= 1, got {n}")
    if (l, m) == (1, 4):
        if n in (1, 2):
            return FqLambda(0)
        if n == 4:
            return FqLambda(9)
        return FqLambda(n - 1)
    if (l, m) == (1, 6):
        if n in (1, 2, 3):
            return FqLambda(0)
        if n == 4:
            return FqLambda(36)
        if n == 6:
            return FqLambda(200)
        return FqLambda(4 * (n - 2) * (n - 1))
    if (l, m) == (2, 6):
        if n in (1, 2, 3):
            return FqLambda(0)
        if n == 4:
            return FqLambda(12)
        if n == 6:
            return FqLambda(40)
        return FqLambda(4 * (n - 2))
    if (l, m) == (1, 8):
        if n in (1, 2, 3):
            return FqLambda(0)
        if n == 4:
            return FqLambda(36)
        if n == 6:
            return FqLambda(3580)
        if n == 8:
            return FqLambda(10794)
        return FqLambda((n - 1) * (n - 2) * (27 * n - 79))
    raise UnsupportedPatternError(f"no closed form for (l,m) = ({l},{m})")


def published_fq_lambda(n: int, l: int, m: int) -> FqLambda:
    """The cycle-regularity constants exactly as printed in the source
    tables, including the two (2,6) values and the conjectured (1,8) cubic
    that the oracle refutes.  Meant for discrepancy reporting, never for
    recognition."""
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
