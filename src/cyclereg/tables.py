"""Analytic 8-cycle classification for I- and DP-graphs, the published
lists of their members with a constant per-edge 8-cycle count, and the
closed-form cycle-regularity constants for folded cubes.

Every 8-cycle class is stored as data: a human-readable existence
condition, symbolic representative patterns, the per-class contribution to
the per-orbit 8-cycle triple, and the orbit size under the rotation (plus,
for DP-graphs, the copy swap).  A class is present only when its
representative instantiates to eight distinct vertices joined by edges of
the member, as `families.member_edges` defines it; the congruence
conditions alone admit degenerate solutions (the triangular prism satisfies
a C7 congruence yet has no 8-cycle at all).

The contribution triples follow the structural derivations: a cycle lying
entirely on the outer rim contributes to the outer orbit, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .cycles import OctagonTriple
from .families import DPParams, IParams, member_edges

# index expression: coefficient on j, coefficient on k, constant
Term = tuple[str, int, int, int]


@dataclass(frozen=True)
class CycleVariant:
    condition: str
    holds: Callable[[int, int, int], bool]
    pattern: tuple[Term, ...]


@dataclass(frozen=True)
class CycleClass:
    label: str
    tau: OctagonTriple
    gamma: str
    variants: tuple[CycleVariant, ...]


def _i_pattern(*terms: tuple[str, int, int]) -> tuple[Term, ...]:
    return tuple((side, cj, ck, 0) for side, cj, ck in terms)


I_CYCLE_CLASSES: tuple[CycleClass, ...] = (
    CycleClass(
        "C*",
        OctagonTriple(2, 4, 2),
        "n",
        (
            CycleVariant(
                "k != j and n > 4",
                lambda n, j, k: k != j and n > 4,
                _i_pattern(("w", 0, 0), ("w", 0, 1), ("u", 0, 1), ("u", 1, 1),
                           ("w", 1, 1), ("w", 1, 0), ("u", 1, 0), ("u", 0, 0)),
            ),
        ),
    ),
    CycleClass(
        "C0",
        OctagonTriple(1, 2, 1),
        "n/2",
        (
            CycleVariant(
                "2k + 2j = n",
                lambda n, j, k: 2 * k + 2 * j == n,
                _i_pattern(("w", 0, 0), ("w", 0, 1), ("u", 0, 1), ("u", 1, 1),
                           ("w", 1, 1), ("w", 1, 2), ("u", 1, 2), ("u", 2, 2)),
            ),
        ),
    ),
    CycleClass(
        "C1",
        OctagonTriple(1, 0, 0),
        "n/8",
        (
            CycleVariant(
                "8j = n or 3n",
                lambda n, j, k: 8 * j in (n, 3 * n),
                _i_pattern(*(("u", t, 0) for t in range(8))),
            ),
        ),
    ),
    CycleClass(
        "C2",
        OctagonTriple(0, 0, 1),
        "n/8",
        (
            CycleVariant(
                "8k = n or 3n",
                lambda n, j, k: 8 * k in (n, 3 * n),
                _i_pattern(*(("w", 0, t) for t in range(8))),
            ),
        ),
    ),
    CycleClass(
        "C3",
        OctagonTriple(1, 2, 5),
        "n",
        (
            CycleVariant(
                "5k + j = n or 2n",
                lambda n, j, k: 5 * k + j in (n, 2 * n),
                _i_pattern(("w", 0, 0), ("w", 0, 1), ("w", 0, 2), ("w", 0, 3),
                           ("w", 0, 4), ("w", 0, 5), ("u", 0, 5), ("u", 1, 5)),
            ),
            CycleVariant(
                "5k - j = n or 2n",
                lambda n, j, k: 5 * k - j in (n, 2 * n),
                _i_pattern(("w", 0, 0), ("w", 0, 1), ("w", 0, 2), ("w", 0, 3),
                           ("w", 0, 4), ("w", 0, 5), ("u", 0, 5), ("u", -1, 5)),
            ),
        ),
    ),
    CycleClass(
        "C4",
        OctagonTriple(5, 2, 1),
        "n",
        (
            CycleVariant(
                "k + 5j = n or 2n",
                lambda n, j, k: k + 5 * j in (n, 2 * n),
                _i_pattern(("u", 0, 0), ("u", 1, 0), ("u", 2, 0), ("u", 3, 0),
                           ("u", 4, 0), ("u", 5, 0), ("w", 5, 0), ("w", 5, 1)),
            ),
            CycleVariant(
                "5j - k = 2n or n or 0",
                lambda n, j, k: 5 * j - k in (2 * n, n, 0),
                _i_pattern(("u", 0, 0), ("u", 1, 0), ("u", 2, 0), ("u", 3, 0),
                           ("u", 4, 0), ("u", 5, 0), ("w", 5, 0), ("w", 5, -1)),
            ),
        ),
    ),
    CycleClass(
        "C5",
        OctagonTriple(2, 2, 4),
        "n",
        (
            CycleVariant(
                "4k + 2j = n or 2k + j = n",
                lambda n, j, k: 4 * k + 2 * j == n or 2 * k + j == n,
                _i_pattern(("w", 0, 0), ("w", 0, 1), ("w", 0, 2), ("w", 0, 3),
                           ("w", 0, 4), ("u", 0, 4), ("u", 1, 4), ("u", 2, 4)),
            ),
            CycleVariant(
                "4k - 2j = n",
                lambda n, j, k: 4 * k - 2 * j == n,
                _i_pattern(("w", 0, 0), ("w", 0, 1), ("w", 0, 2), ("w", 0, 3),
                           ("w", 0, 4), ("u", 0, 4), ("u", -1, 4), ("u", -2, 4)),
            ),
        ),
    ),
    CycleClass(
        "C6",
        OctagonTriple(4, 2, 2),
        "n",
        (
            CycleVariant(
                "2k + 4j = n or k + 2j = n",
                lambda n, j, k: 2 * k + 4 * j == n or k + 2 * j == n,
                _i_pattern(("u", 0, 0), ("u", 1, 0), ("u", 2, 0), ("u", 3, 0),
                           ("u", 4, 0), ("w", 4, 0), ("w", 4, 1), ("w", 4, 2)),
            ),
            CycleVariant(
                "4j - 2k = n or 0",
                lambda n, j, k: 4 * j - 2 * k in (n, 0),
                _i_pattern(("u", 0, 0), ("u", 1, 0), ("u", 2, 0), ("u", 3, 0),
                           ("u", 4, 0), ("w", 4, 0), ("w", 4, -1), ("w", 4, -2)),
            ),
        ),
    ),
    CycleClass(
        "C7",
        OctagonTriple(3, 2, 3),
        "n",
        (
            CycleVariant(
                "3k + 3j = n or 2n",
                lambda n, j, k: 3 * k + 3 * j in (n, 2 * n),
                _i_pattern(("w", 0, 0), ("w", 0, 1), ("w", 0, 2), ("w", 0, 3),
                           ("u", 0, 3), ("u", 1, 3), ("u", 2, 3), ("u", 3, 3)),
            ),
            CycleVariant(
                "3k - 3j = n or 0",
                lambda n, j, k: 3 * k - 3 * j in (n, 0),
                _i_pattern(("w", 0, 0), ("w", 0, 1), ("w", 0, 2), ("w", 0, 3),
                           ("u", 0, 3), ("u", -1, 3), ("u", -2, 3), ("u", -3, 3)),
            ),
        ),
    ),
)


def _class_multiplicities(
    p: IParams | DPParams, classes: tuple[CycleClass, ...]
) -> list[tuple[CycleClass, int]]:
    """Each class with the number of its variants present in the member: the
    condition holds, and the pattern instantiates, through the id
    convention, to eight distinct vertices joined cyclically by edges of
    `member_edges(p)`."""
    n, k = p.n, p.k
    j = p.j if isinstance(p, IParams) else 1  # the DP rims step by 1
    member = set(member_edges(p)[1])

    def present(var: CycleVariant) -> bool:
        if not var.holds(n, j, k):
            return False
        verts = ["uwxy".index(side) * n + (cj * j + ck * k + c) % n
                 for side, cj, ck, c in var.pattern]
        if len(set(verts)) != 8:
            return False
        return all((a, b) in member or (b, a) in member
                   for a, b in zip(verts, verts[1:] + verts[:1]))

    return [(c, sum(map(present, c.variants))) for c in classes]


def i_graph_cycle_classes(p: IParams) -> list[tuple[CycleClass, int]]:
    """Each 8-cycle class with its multiplicity in I(n,j,k).

    Assumes the standing normal form j <= k < n/2 with gcd(n,j,k) = 1; a
    multiplicity of 2 means both sign variants of the class occur (this
    happens only for the Moebius-Kantor relatives G(8,2) and G(6,1)).
    """
    return _class_multiplicities(p, I_CYCLE_CLASSES)


def predict_i_octagon(p: IParams) -> OctagonTriple:
    """Predicted per-orbit 8-cycle triple of I(n,j,k): sum of class
    contributions over all present classes, counted with multiplicity."""
    total = OctagonTriple(0, 0, 0)
    for c, mult in i_graph_cycle_classes(p):
        if mult:
            total = total + c.tau.scaled(mult)
    return total


def _dp_pattern(*terms: tuple[str, int, int]) -> tuple[Term, ...]:
    # DP outer step is fixed at 1, so the j coefficient is unused
    return tuple((side, 0, ck, c) for side, ck, c in terms)


DP_CYCLE_CLASSES: tuple[CycleClass, ...] = (
    CycleClass(
        "C*",
        OctagonTriple(2, 4, 2),
        "2n",
        (
            CycleVariant(
                "n >= 3",
                lambda n, j, k: n >= 3,
                _dp_pattern(("w", 0, 0), ("y", 1, 0), ("x", 1, 0), ("x", 1, 1),
                            ("y", 1, 1), ("w", 0, 1), ("u", 0, 1), ("u", 0, 0)),
            ),
        ),
    ),
    CycleClass(
        "C0",
        OctagonTriple(1, 2, 1),
        "n",
        (
            CycleVariant(
                "2k + 2 = n",
                lambda n, j, k: 2 * k + 2 == n,
                _dp_pattern(("w", 0, 0), ("y", 1, 0), ("x", 1, 0), ("x", 1, 1),
                            ("y", 1, 1), ("w", 2, 1), ("u", 2, 1), ("u", 2, 2)),
            ),
        ),
    ),
    CycleClass(
        "C1",
        OctagonTriple(1, 2, 1),
        "n",
        (
            CycleVariant(
                "k = 1",
                lambda n, j, k: k == 1,
                _dp_pattern(("w", 0, 0), ("y", 1, 0), ("x", 1, 0), ("x", 1, -1),
                            ("y", 1, -1), ("w", 2, -1), ("u", 2, -1), ("u", 2, -2)),
            ),
        ),
    ),
    CycleClass(
        "C2",
        OctagonTriple(1, 0, 0),
        "2",
        (
            CycleVariant(
                "n = 8",
                lambda n, j, k: n == 8,
                _dp_pattern(*(("u", 0, t) for t in range(8))),
            ),
        ),
    ),
    CycleClass(
        "C3",
        OctagonTriple(0, 0, 1),
        "n/4",
        (
            CycleVariant(
                "8k = n or 3n",
                lambda n, j, k: 8 * k in (n, 3 * n),
                _dp_pattern(("w", 0, 0), ("y", 1, 0), ("w", 2, 0), ("y", 3, 0),
                            ("w", 4, 0), ("y", 5, 0), ("w", 6, 0), ("y", 7, 0)),
            ),
        ),
    ),
    CycleClass(
        "C4",
        OctagonTriple(2, 2, 4),
        "2n",
        (
            CycleVariant(
                "4k + 2 = n or 2k + 1 = n",
                lambda n, j, k: 4 * k + 2 == n or 2 * k + 1 == n,
                _dp_pattern(("w", 0, 0), ("y", 1, 0), ("w", 2, 0), ("y", 3, 0),
                            ("w", 4, 0), ("u", 4, 0), ("u", 4, 1), ("u", 4, 2)),
            ),
            CycleVariant(
                "4k - 2 = n",
                lambda n, j, k: 4 * k - 2 == n,
                _dp_pattern(("w", 0, 0), ("y", 1, 0), ("w", 2, 0), ("y", 3, 0),
                            ("w", 4, 0), ("u", 4, 0), ("u", 4, -1), ("u", 4, -2)),
            ),
        ),
    ),
    CycleClass(
        "C5",
        OctagonTriple(4, 2, 2),
        "2n",
        (
            CycleVariant(
                "2k + 4 = n",
                lambda n, j, k: 2 * k + 4 == n,
                _dp_pattern(("u", 0, 0), ("u", 0, 1), ("u", 0, 2), ("u", 0, 3),
                            ("u", 0, 4), ("w", 0, 4), ("y", 1, 4), ("w", 2, 4)),
            ),
            CycleVariant(
                "2k - 4 = 0",
                lambda n, j, k: 2 * k - 4 == 0,
                _dp_pattern(("u", 0, 0), ("u", 0, 1), ("u", 0, 2), ("u", 0, 3),
                            ("u", 0, 4), ("w", 0, 4), ("y", -1, 4), ("w", -2, 4)),
            ),
        ),
    ),
)


def dp_cycle_classes(p: DPParams) -> list[tuple[CycleClass, int]]:
    """Each 8-cycle class with its multiplicity in DP(n,k); multiplicity 2
    occurs only for DP(8,2), where both C5 variants hold."""
    return _class_multiplicities(p, DP_CYCLE_CLASSES)


def predict_dp_octagon(p: DPParams) -> OctagonTriple:
    """Predicted per-orbit 8-cycle triple of DP(n,k)."""
    total = OctagonTriple(0, 0, 0)
    for c, mult in dp_cycle_classes(p):
        if mult:
            total = total + c.tau.scaled(mult)
    return total


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
    for the requested pattern (only FQ_4 with (l,m) = (2,6)).
    """

    value: int | None
    conjectured: bool = False

    @property
    def is_regular(self) -> bool:
        return self.value is not None


def fq_lambda(n: int, l: int, m: int) -> FqLambda:
    """Cycle-regularity constant of FQ_n for the supported (l,m) patterns.

    (1,4), (1,6) and (2,6) are settled; (1,8) is conjectural and is flagged
    as such so recognition can never rely on it.

    Two published (2,6) special values are corrected here because they are
    refuted by exhaustive counting (and, for n = 6, by arithmetic against
    the published [1,200,6] constant): FQ_4 is [2,12,6]-cycle regular, not
    irregular, and FQ_6 is [2,40,6], not [2,2,6].  The values as printed
    are available from `published_fq_lambda`.
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
        if n in (1, 2,  3):
            return FqLambda(0, conjectured=True)
        if n == 4:
            return FqLambda(36, conjectured=True)
        if n == 6:
            return FqLambda(3580, conjectured=True)
        if n == 8:
            return FqLambda(10794, conjectured=True)
        return FqLambda(
            27 * n**3 - 133 * n**2 + 210 * n - 104, conjectured=True
        )
    raise UnsupportedPatternError(f"no closed form for (l,m) = ({l},{m})")


def published_fq_lambda(n: int, l: int, m: int) -> FqLambda:
    """The cycle-regularity constants exactly as printed in the source
    tables, including the two (2,6) values the oracle refutes.  Meant for
    discrepancy reporting, never for recognition."""
    if (l, m) == (2, 6) and n == 4:
        return FqLambda(None)
    if (l, m) == (2, 6) and n == 6:
        return FqLambda(2)
    return fq_lambda(n, l, m)
