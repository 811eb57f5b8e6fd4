"""Analytic 8-cycle classification for I- and DP-graphs, the published
lists of their members with a constant per-edge 8-cycle count, and the
closed-form cycle-regularity constants for folded cubes.

Every 8-cycle class is stored as data: one symbolic representative pattern
per sign variant, the per-class contribution to the per-orbit 8-cycle
triple, and the orbit size under the rotation (plus, for DP-graphs, the
copy swap).  The pattern is the only statement of the class: a variant is
present exactly when its pattern instantiates to eight distinct vertices
joined cyclically by edges of the member, as `families.member_adjacency`
defines it.  The paper's existence condition (stated for j <= k) stands as
a comment on each pattern, and no code reads it: the pattern's closing edge
encodes the congruence, and the distinctness of its vertices rules out the
degenerate solutions (the triangular prism satisfies a C7 congruence yet
has no 8-cycle at all).  The patterns hold for j > k as well.

The contribution triples follow the structural derivations: a cycle lying
entirely on the outer rim contributes to the outer orbit, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycles import OctagonTriple
from .families import DPParams, IParams, member_adjacency

# a vertex: side, coefficient of j, coefficient of k (DP-graphs have j = 1)
Term = tuple[str, int, int]


@dataclass(frozen=True)
class CycleClass:
    label: str
    tau: OctagonTriple
    gamma: str
    patterns: tuple[tuple[Term, ...], ...]


I_CYCLE_CLASSES: tuple[CycleClass, ...] = (
    CycleClass(
        "C*",
        OctagonTriple(2, 4, 2),
        "n",
        (
            # k != j and n > 4
            (("w", 0, 0), ("w", 0, 1), ("u", 0, 1), ("u", 1, 1),
             ("w", 1, 1), ("w", 1, 0), ("u", 1, 0), ("u", 0, 0)),
        ),
    ),
    CycleClass(
        "C0",
        OctagonTriple(1, 2, 1),
        "n/2",
        (
            # 2k + 2j = n
            (("w", 0, 0), ("w", 0, 1), ("u", 0, 1), ("u", 1, 1),
             ("w", 1, 1), ("w", 1, 2), ("u", 1, 2), ("u", 2, 2)),
        ),
    ),
    CycleClass(
        "C1",
        OctagonTriple(1, 0, 0),
        "n/8",
        (
            # 8j = n or 3n
            tuple(("u", t, 0) for t in range(8)),
        ),
    ),
    CycleClass(
        "C2",
        OctagonTriple(0, 0, 1),
        "n/8",
        (
            # 8k = n or 3n
            tuple(("w", 0, t) for t in range(8)),
        ),
    ),
    CycleClass(
        "C3",
        OctagonTriple(1, 2, 5),
        "n",
        (
            # 5k + j = n or 2n
            (("w", 0, 0), ("w", 0, 1), ("w", 0, 2), ("w", 0, 3),
             ("w", 0, 4), ("w", 0, 5), ("u", 0, 5), ("u", 1, 5)),
            # 5k - j = n or 2n
            (("w", 0, 0), ("w", 0, 1), ("w", 0, 2), ("w", 0, 3),
             ("w", 0, 4), ("w", 0, 5), ("u", 0, 5), ("u", -1, 5)),
        ),
    ),
    CycleClass(
        "C4",
        OctagonTriple(5, 2, 1),
        "n",
        (
            # k + 5j = n or 2n
            (("u", 0, 0), ("u", 1, 0), ("u", 2, 0), ("u", 3, 0),
             ("u", 4, 0), ("u", 5, 0), ("w", 5, 0), ("w", 5, 1)),
            # 5j - k = 2n or n or 0
            (("u", 0, 0), ("u", 1, 0), ("u", 2, 0), ("u", 3, 0),
             ("u", 4, 0), ("u", 5, 0), ("w", 5, 0), ("w", 5, -1)),
        ),
    ),
    CycleClass(
        "C5",
        OctagonTriple(2, 2, 4),
        "n",
        (
            # 4k + 2j = n or 2k + j = n
            (("w", 0, 0), ("w", 0, 1), ("w", 0, 2), ("w", 0, 3),
             ("w", 0, 4), ("u", 0, 4), ("u", 1, 4), ("u", 2, 4)),
            # 4k - 2j = n
            (("w", 0, 0), ("w", 0, 1), ("w", 0, 2), ("w", 0, 3),
             ("w", 0, 4), ("u", 0, 4), ("u", -1, 4), ("u", -2, 4)),
        ),
    ),
    CycleClass(
        "C6",
        OctagonTriple(4, 2, 2),
        "n",
        (
            # 2k + 4j = n or k + 2j = n
            (("u", 0, 0), ("u", 1, 0), ("u", 2, 0), ("u", 3, 0),
             ("u", 4, 0), ("w", 4, 0), ("w", 4, 1), ("w", 4, 2)),
            # 4j - 2k = n or 0
            (("u", 0, 0), ("u", 1, 0), ("u", 2, 0), ("u", 3, 0),
             ("u", 4, 0), ("w", 4, 0), ("w", 4, -1), ("w", 4, -2)),
        ),
    ),
    CycleClass(
        "C7",
        OctagonTriple(3, 2, 3),
        "n",
        (
            # 3k + 3j = n or 2n
            (("w", 0, 0), ("w", 0, 1), ("w", 0, 2), ("w", 0, 3),
             ("u", 0, 3), ("u", 1, 3), ("u", 2, 3), ("u", 3, 3)),
            # 3k - 3j = n or 0
            (("w", 0, 0), ("w", 0, 1), ("w", 0, 2), ("w", 0, 3),
             ("u", 0, 3), ("u", -1, 3), ("u", -2, 3), ("u", -3, 3)),
        ),
    ),
)


def _class_multiplicities(
    p: IParams | DPParams, classes: tuple[CycleClass, ...]
) -> list[tuple[CycleClass, int]]:
    """Each class with the number of its patterns present in the member: the
    pattern instantiates, through the id convention, to eight distinct
    vertices joined cyclically by edges of `member_adjacency(p)`.  The
    closing edge is looked up first; it is the one that fails for most
    (n, j, k)."""
    n, k = p.n, p.k
    j = p.j if isinstance(p, IParams) else 1  # the DP rims step by 1
    rows = list(member_adjacency(p))
    base = {side: t * n for t, side in enumerate("uwxy")}  # the id convention

    def present(pattern: tuple[Term, ...]) -> bool:
        verts = [base[side] + (cj * j + ck * k) % n for side, cj, ck in pattern]
        return len(set(verts)) == 8 and all(
            b in rows[a] for a, b in zip(verts[-1:] + verts, verts))

    return [(c, sum(map(present, c.patterns))) for c in classes]


def _predicted(classes: list[tuple[CycleClass, int]]) -> OctagonTriple:
    return sum((c.tau.scaled(mult) for c, mult in classes), OctagonTriple(0, 0, 0))


def i_graph_cycle_classes(p: IParams) -> list[tuple[CycleClass, int]]:
    """Each 8-cycle class with its multiplicity in I(n,j,k).

    A multiplicity of 2 means both sign variants of the class occur; among
    connected I-graphs this happens only for the Moebius-Kantor relatives
    G(8,2) and G(6,1), under any of their parameters.
    """
    return _class_multiplicities(p, I_CYCLE_CLASSES)


def predict_i_octagon(p: IParams) -> OctagonTriple:
    """Predicted per-orbit 8-cycle triple of I(n,j,k): sum of class
    contributions over all present classes, counted with multiplicity."""
    return _predicted(i_graph_cycle_classes(p))


DP_CYCLE_CLASSES: tuple[CycleClass, ...] = (
    CycleClass(
        "C*",
        OctagonTriple(2, 4, 2),
        "2n",
        (
            # n >= 3
            (("w", 0, 0), ("y", 0, 1), ("x", 0, 1), ("x", 1, 1),
             ("y", 1, 1), ("w", 1, 0), ("u", 1, 0), ("u", 0, 0)),
        ),
    ),
    CycleClass(
        "C0",
        OctagonTriple(1, 2, 1),
        "n",
        (
            # 2k + 2 = n
            (("w", 0, 0), ("y", 0, 1), ("x", 0, 1), ("x", 1, 1),
             ("y", 1, 1), ("w", 1, 2), ("u", 1, 2), ("u", 2, 2)),
        ),
    ),
    CycleClass(
        "C1",
        OctagonTriple(1, 2, 1),
        "n",
        (
            # k = 1
            (("w", 0, 0), ("y", 0, 1), ("x", 0, 1), ("x", -1, 1),
             ("y", -1, 1), ("w", -1, 2), ("u", -1, 2), ("u", -2, 2)),
        ),
    ),
    CycleClass(
        "C2",
        OctagonTriple(1, 0, 0),
        "2",
        (
            # n = 8
            tuple(("u", t, 0) for t in range(8)),
        ),
    ),
    CycleClass(
        "C3",
        OctagonTriple(0, 0, 1),
        "n/4",
        (
            # 8k = n or 3n
            (("w", 0, 0), ("y", 0, 1), ("w", 0, 2), ("y", 0, 3),
             ("w", 0, 4), ("y", 0, 5), ("w", 0, 6), ("y", 0, 7)),
        ),
    ),
    CycleClass(
        "C4",
        OctagonTriple(2, 2, 4),
        "2n",
        (
            # 4k + 2 = n or 2k + 1 = n
            (("w", 0, 0), ("y", 0, 1), ("w", 0, 2), ("y", 0, 3),
             ("w", 0, 4), ("u", 0, 4), ("u", 1, 4), ("u", 2, 4)),
            # 4k - 2 = n
            (("w", 0, 0), ("y", 0, 1), ("w", 0, 2), ("y", 0, 3),
             ("w", 0, 4), ("u", 0, 4), ("u", -1, 4), ("u", -2, 4)),
        ),
    ),
    CycleClass(
        "C5",
        OctagonTriple(4, 2, 2),
        "2n",
        (
            # 2k + 4 = n
            (("u", 0, 0), ("u", 1, 0), ("u", 2, 0), ("u", 3, 0),
             ("u", 4, 0), ("w", 4, 0), ("y", 4, 1), ("w", 4, 2)),
            # 2k - 4 = 0
            (("u", 0, 0), ("u", 1, 0), ("u", 2, 0), ("u", 3, 0),
             ("u", 4, 0), ("w", 4, 0), ("y", 4, -1), ("w", 4, -2)),
        ),
    ),
)


def dp_cycle_classes(p: DPParams) -> list[tuple[CycleClass, int]]:
    """Each 8-cycle class with its multiplicity in DP(n,k); multiplicity 2
    occurs only for DP(8,2), where both C5 patterns are present."""
    return _class_multiplicities(p, DP_CYCLE_CLASSES)


def predict_dp_octagon(p: DPParams) -> OctagonTriple:
    """Predicted per-orbit 8-cycle triple of DP(n,k)."""
    return _predicted(dp_cycle_classes(p))


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
