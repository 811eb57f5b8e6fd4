import hashlib
from math import gcd
from typing import Callable

import pytest

from cyclereg import (
    DPParams,
    FqLambda,
    FQParams,
    IParams,
    OctagonTriple,
    UnsupportedPatternError,
    canonical_i_params,
    count_cycles_through_path,
    fq_lambda,
    generate_folded_cube,
    predict_dp_octagon,
    predict_i_octagon,
)
from cyclereg.scans import measured_octagon
from cyclereg.families import generate_dp, generate_i_graph
from cyclereg.tables import (
    CYCLE_REGULAR_DP,
    CYCLE_REGULAR_I,
    published_fq_lambda,
)

from paper_classes import (
    DP_CYCLE_CLASSES,
    I_CYCLE_CLASSES,
    CycleClass,
    classified_triple,
    dp_cycle_classes,
    i_graph_cycle_classes,
)


_GAMMA: dict[str, Callable[[int], int]] = {
    "n": lambda n: n,
    "n/2": lambda n: n // 2,
    "n/4": lambda n: n // 4,
    "n/8": lambda n: n // 8,
    "2n": lambda n: 2 * n,
    "2": lambda n: 2,
}


def gamma_value(c: CycleClass, n: int) -> int:
    return _GAMMA[c.gamma](n)


def _present(classes):
    return {c.label for c, mult in classes if mult}


def test_i_classes_cube():
    assert _present(i_graph_cycle_classes(IParams(4, 1, 1))) == {"C0", "C7"}


def test_i_classes_petersen():
    assert _present(i_graph_cycle_classes(IParams(5, 1, 2))) == {"C*", "C5", "C6"}


def test_i_classes_prism_none():
    assert _present(i_graph_cycle_classes(IParams(3, 1, 1))) == set()


def test_i_double_multiplicities():
    # both C6 variants hold for G(8,2); both C7 variants for G(6,1)
    mults = dict(
        (c.label, m) for c, m in i_graph_cycle_classes(IParams(8, 1, 2)) if m
    )
    assert mults["C6"] == 2
    mults = dict(
        (c.label, m) for c, m in i_graph_cycle_classes(IParams(6, 1, 1)) if m
    )
    assert mults["C7"] == 2


def test_predict_i_known_triples():
    assert predict_i_octagon(IParams(4, 1, 1)) == OctagonTriple(4, 4, 4)
    assert predict_i_octagon(IParams(5, 1, 2)) == OctagonTriple(8, 8, 8)
    assert predict_i_octagon(IParams(3, 1, 1)) == OctagonTriple(0, 0, 0)


def test_dp_classes_examples():
    assert _present(dp_cycle_classes(DPParams(5, 2))) == {"C*", "C4", "C5"}
    mults = dict((c.label, m) for c, m in dp_cycle_classes(DPParams(8, 2)) if m)
    assert mults["C5"] == 2
    # DP(6,1) carries C1 (k = 1); its isomorphic twin DP(6,2) carries C0
    assert "C1" in _present(dp_cycle_classes(DPParams(6, 1)))
    assert "C0" in _present(dp_cycle_classes(DPParams(6, 2)))


def test_predict_dp_known_triples():
    assert predict_dp_octagon(DPParams(5, 2)) == OctagonTriple(8, 8, 8)
    assert predict_dp_octagon(DPParams(10, 2)) == OctagonTriple(8, 8, 8)
    assert not predict_dp_octagon(DPParams(6, 1)).is_constant()
    # isomorphic twins predict the same triple through different classes
    assert predict_dp_octagon(DPParams(6, 1)) == predict_dp_octagon(DPParams(6, 2))


def test_tau_gamma_bookkeeping():
    # each 8-cycle has 8 edges, distributed over the orbits: the tau
    # components must sum to 8 * gamma / n (I) or 8 * gamma / 2n (DP)
    n = 240  # divisible by 8 and 4 so the gamma rules are integral
    for c in I_CYCLE_CLASSES:
        tau_sum = c.tau.sigma_outer + c.tau.sigma_spoke + c.tau.sigma_inner
        assert tau_sum * n == 8 * gamma_value(c, n)
    for c in DP_CYCLE_CLASSES:
        if c.label == "C2":
            continue  # exists only at n = 8
        tau_sum = c.tau.sigma_outer + c.tau.sigma_spoke + c.tau.sigma_inner
        assert tau_sum * 2 * n == 8 * gamma_value(c, n)
    c2 = next(c for c in DP_CYCLE_CLASSES if c.label == "C2")
    tau_sum = c2.tau.sigma_outer + c2.tau.sigma_spoke + c2.tau.sigma_inner
    assert tau_sum * 2 * 8 == 8 * gamma_value(c2, 8)


def test_gamma_counts_match_census():
    # the number of 8-cycles equals the sum of orbit sizes of the present
    # classes; cross-check against the oracle census
    from conftest import count_cycles

    for p in [IParams(5, 1, 2), IParams(8, 1, 3), IParams(12, 1, 5), IParams(6, 1, 1)]:
        total = sum(
            gamma_value(c, p.n) * mult for c, mult in i_graph_cycle_classes(p) if mult
        )
        assert total == count_cycles(generate_i_graph(p), 8)
    for p in [DPParams(5, 2), DPParams(8, 2), DPParams(6, 1)]:
        total = sum(
            gamma_value(c, p.n) * mult for c, mult in dp_cycle_classes(p) if mult
        )
        assert total == count_cycles(generate_dp(p), 8)


def test_oracle_table_agreement_small_grid():
    # the full n <= 40 sweep lives in the acceptance suite
    for n in range(3, 19):
        for j in range(1, (n - 1) // 2 + 1):
            for k in range(j, (n - 1) // 2 + 1):
                if gcd(gcd(n, j), k) != 1:
                    continue
                p = IParams(n, j, k)
                assert predict_i_octagon(p) == measured_octagon(p), p
    for n in range(3, 15):
        for k in range(1, (n - 1) // 2 + 1):
            p = DPParams(n, k)
            assert predict_dp_octagon(p) == measured_octagon(p), p


def test_oracle_table_agreement_with_k_below_j():
    # I(n,j,k) = I(n,k,j) with the rims swapped; the patterns cover both
    # orders, disconnected members included (I(5,2,1) is the Petersen graph)
    checked = 0
    for n in range(3, 21):
        for j in range(1, (n - 1) // 2 + 1):
            for k in range(1, j):
                p = IParams(n, j, k)
                assert predict_i_octagon(p) == measured_octagon(p), p
                checked += 1
    assert checked == 240
    assert predict_i_octagon(IParams(5, 2, 1)) == OctagonTriple(8, 8, 8)


def test_class_multiplicities_pinned():
    # every I(n,j,k) with j <= k < n/2 (disconnected ones too) and every
    # DP(n,k) with n <= 60: a change to the class data or the presence
    # check that keeps every multiplicity keeps the digest.  The closed-word
    # counts of the library equal the classification's triple there, and
    # for every j > k as well
    rows = []
    regular_i, regular_dp = {}, {}

    def add(p, classes, predicted):
        rows.append((p, [(c.label, mult) for c, mult in classes]))
        triple = classified_triple(classes)
        assert predicted == triple, p
        return triple.sigma_outer if triple.is_constant() else None

    for n in range(3, 61):
        half = (n - 1) // 2
        for j in range(1, half + 1):
            for k in range(1, j):
                p = IParams(n, j, k)
                assert predict_i_octagon(p) == classified_triple(i_graph_cycle_classes(p)), p
            for k in range(j, half + 1):
                p = IParams(n, j, k)
                lam = add(p, i_graph_cycle_classes(p), predict_i_octagon(p))
                if lam is not None and gcd(gcd(n, j), k) == 1:
                    q = canonical_i_params(p)
                    regular_i[(q.n, q.j, q.k)] = lam
        for k in range(1, half + 1):
            p = DPParams(n, k)
            lam = add(p, dp_cycle_classes(p), predict_dp_octagon(p))
            if lam is not None:
                regular_dp[(n, k)] = lam
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "24b08325119f4bcc91c161deb65c8ad0bba46e3dd3e321f1acf5824fd2da037e"
    # the classification's constant triples are the published members,
    # with the verified lambda at the two refuted entries of table 5
    assert regular_i == {**CYCLE_REGULAR_I, (8, 1, 3): 10, (12, 1, 5): 12}
    assert regular_dp == CYCLE_REGULAR_DP


def test_fq_lambda_values():
    assert fq_lambda(4, 1, 4).value == 9 and not fq_lambda(4, 1, 4).conjectured
    assert fq_lambda(6, 1, 6).value == 200
    assert fq_lambda(5, 2, 6).value == 12
    lam = published_fq_lambda(8, 1, 8)
    assert lam.value == 10794 and lam.conjectured
    assert fq_lambda(1, 1, 4).value == 0
    assert fq_lambda(2, 1, 6).value == 0
    assert fq_lambda(3, 2, 6).value == 0
    assert fq_lambda(5, 1, 4).value == 4
    assert fq_lambda(7, 2, 6).value == 20
    assert published_fq_lambda(5, 1, 8).value == 996 and published_fq_lambda(5, 1, 8).conjectured
    assert published_fq_lambda(9, 1, 8) == FqLambda(10696, conjectured=True)
    # the settled values: the printed specials and the hypercube count
    assert fq_lambda(8, 1, 8) == FqLambda(10794)
    assert fq_lambda(5, 1, 8) == FqLambda(672)


def test_fq_eight_cycle_lambda_equals_one_edge_oracle():
    # FQ_n is arc-transitive, so the 8-cycles through one edge give lambda
    for n in range(2, 13):
        g = generate_folded_cube(FQParams(n))
        assert count_cycles_through_path(g, (0, 1), 8) == fq_lambda(n, 1, 8).value, n


def test_fq_lambda_corrected_specials_vs_published():
    # the oracle refutes the two printed (2,6) specials; the library
    # reports the verified values and keeps the printed ones separately
    assert fq_lambda(4, 2, 6).value == 12
    assert fq_lambda(6, 2, 6).value == 40
    assert published_fq_lambda(4, 2, 6).value is None
    assert published_fq_lambda(6, 2, 6).value == 2
    assert published_fq_lambda(5, 2, 6) == fq_lambda(5, 2, 6)


def test_fq_lambda_unsupported():
    with pytest.raises(UnsupportedPatternError):
        fq_lambda(5, 3, 8)
    with pytest.raises(UnsupportedPatternError):
        fq_lambda(0, 1, 4)
