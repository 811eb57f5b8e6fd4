"""The paper's analytic classification of the 8-cycles of I- and
DP-graphs, kept verbatim as the reference that `tables.predict_i_octagon`
and `tables.predict_dp_octagon` (closed words of the base graphs) are held
to.

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

from cyclereg import DPParams, IParams, OctagonTriple
from cyclereg.families import member_adjacency

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


def classified_triple(classes: list[tuple[CycleClass, int]]) -> OctagonTriple:
    """The per-orbit 8-cycle triple of the classification: each present
    class's contribution, counted with multiplicity."""
    return OctagonTriple(
        sum(c.tau.sigma_outer * mult for c, mult in classes),
        sum(c.tau.sigma_spoke * mult for c, mult in classes),
        sum(c.tau.sigma_inner * mult for c, mult in classes),
    )


def i_graph_cycle_classes(p: IParams) -> list[tuple[CycleClass, int]]:
    """Each 8-cycle class with its multiplicity in I(n,j,k).

    A multiplicity of 2 means both sign variants of the class occur; among
    connected I-graphs this happens only for the Moebius-Kantor relatives
    G(8,2) and G(6,1), under any of their parameters.
    """
    return _class_multiplicities(p, I_CYCLE_CLASSES)


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
