"""Acceptance criteria, one test (or tightly scoped test group) each.

Every test prints a PASS/FAIL line so a `pytest -s` run reads as a
checklist.  The tests marked `paper_defect` are records of a refutation:
the published octagon constants for G(8,3)/G(12,5) and the published
[2,lambda,6] specials for FQ_4/FQ_6 are refuted by the brute-force oracle
(README, "Refuted published constants").  Each record pins the published
value verbatim, asserts that the oracle departs from it at exactly those
entries and with the verified values, and confirms each verified value by a
route that does not go through the oracle.  Select them with
`-m paper_defect`.
"""

import random
from collections import Counter

import pytest

from cyclereg import (
    Certificate,
    DPParams,
    FQParams,
    IParams,
    OctagonTriple,
    dp_canonical_params,
    find_isomorphism,
    fq_lambda,
    generate_dp,
    generate_folded_cube,
    generate_i_graph,
    predict_dp_octagon,
    predict_i_octagon,
    published_fq_lambda,
    recognize_dp,
    recognize_folded_cube,
    recognize_i_graph,
    regularity_scan,
    verify_certificate,
)
from cyclereg.scans import (
    BenchRow,
    bench_fq_recognition,
    bench_i_recognition,
    canonical_i_grid,
    check_fq_eight_cycle_conjecture,
    check_fq_formula,
    dp_grid,
    measured_octagon,
    scan_cycle_regular_dp,
    scan_cycle_regular_i,
)
from cyclereg.tables import CYCLE_REGULAR_DP, CYCLE_REGULAR_I

from conftest import dp_twin_map, random_cubic, shuffled


def _report(num: int, ok: bool, msg: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {msg}")


# ---------------------------------------------------------------------------
# 1. Table 5 reproduction (n <= 40)


def test_criterion_1_membership():
    found = scan_cycle_regular_i(40)
    expected_members = set(CYCLE_REGULAR_I)
    ok = set(found) == expected_members
    _report(1, ok, f"cycle-regular I-graphs n<=40: found {sorted(found)}")
    assert set(found) == expected_members
    # regularity doubly confirmed by a full per-path scan on each member
    for p in sorted(found):
        report = regularity_scan(generate_i_graph(IParams(*p)), 1, 8)
        assert report.is_regular and report.lambda_value == found[p]


#: Table 5 entries the oracle refutes: (published lambda, verified lambda).
REFUTED_I_LAMBDA = {(8, 1, 3): (8, 10), (12, 1, 5): (8, 12)}


@pytest.mark.paper_defect
def test_criterion_1_lambda_values_as_specified():
    # the published record, verbatim
    assert CYCLE_REGULAR_I[(8, 1, 3)] == CYCLE_REGULAR_I[(12, 1, 5)] == 8
    # the oracle departs from it at exactly the refuted entries
    found = scan_cycle_regular_i(40)
    mismatches = {
        p: (CYCLE_REGULAR_I.get(p), found.get(p))
        for p in CYCLE_REGULAR_I.keys() | found.keys()
        if found.get(p) != CYCLE_REGULAR_I.get(p)
    }
    ok = mismatches == REFUTED_I_LAMBDA
    _report(1, ok, f"published lambda values vs oracle: mismatches {mismatches}")
    assert ok, (
        f"published/oracle mismatches {mismatches}, expected exactly "
        f"{REFUTED_I_LAMBDA}: G(8,3) is [1,10,8]- and G(12,5) is "
        "[1,12,8]-cycle regular (30 and 54 octagons; the paper's own "
        "existence conditions for C0/C1/C2 resp. C0/C7 hold there). "
        'See the README, "Refuted published constants".'
    )
    # the 8-cycle classification gives the verified values, not the published
    for p, (_, verified) in REFUTED_I_LAMBDA.items():
        assert predict_i_octagon(IParams(*p)) == OctagonTriple(
            verified, verified, verified
        ), p


def test_criterion_1_oracle_lambda_truth():
    found = scan_cycle_regular_i(40)
    truth = dict(CYCLE_REGULAR_I)
    truth[(8, 1, 3)] = 10
    truth[(12, 1, 5)] = 12
    ok = found == truth
    _report(1, ok, f"oracle lambda values {sorted(found.items())}")
    assert found == truth


# ---------------------------------------------------------------------------
# 2. Theorem 2 reproduction (DP, n <= 40)


def test_criterion_2_dp_scan_and_twin():
    found = scan_cycle_regular_dp(40)
    ok = found == CYCLE_REGULAR_DP
    _report(2, ok, f"cycle-regular DP-graphs n<=40: {sorted(found.items())}")
    assert found == CYCLE_REGULAR_DP
    # (10,2) and (10,3) are isomorphic via the explicit twin map
    mapping = dp_twin_map(DPParams(10, 2))
    src, dst = generate_dp(DPParams(10, 2)), generate_dp(DPParams(10, 3))
    assert all(dst.has_edge(mapping[a], mapping[b]) for a, b in src.edges())


# ---------------------------------------------------------------------------
# 3. Oracle/table octagon agreement (n <= 40)


@pytest.mark.slow
def test_criterion_3_octagon_agreement():
    bad = []
    for p in canonical_i_grid(40):
        if predict_i_octagon(p) != measured_octagon(p):
            bad.append(("i", p))
    for p in dp_grid(40):
        if predict_dp_octagon(p) != measured_octagon(p):
            bad.append(("dp", p))
    _report(3, not bad, f"octagon prediction vs oracle on full n<=40 grids: "
                        f"{len(bad)} mismatches")
    assert not bad, bad


# ---------------------------------------------------------------------------
# 4. Folded-cube lambda formulas (3 <= n <= 9)


@pytest.mark.slow
def test_criterion_4_fq_formulas():
    dims = list(range(3, 10))
    rows = (
        check_fq_formula(1, 4, dims)
        + check_fq_formula(1, 6, dims)
        + check_fq_formula(2, 6, dims)
    )
    bad = [r for r in rows if not r.matches]
    _report(4, not bad, f"FQ scans vs closed forms over n=3..9: "
                        f"{len(rows) - len(bad)}/{len(rows)} match")
    assert not bad, bad
    # proven special cases that survive the oracle
    assert fq_lambda(4, 1, 4).value == 9
    assert fq_lambda(4, 1, 6).value == 36
    assert fq_lambda(6, 1, 6).value == 200


#: [2,lambda,6] specials the oracle refutes, by dimension:
#: (published lambda, verified lambda); None means "not cycle regular".
REFUTED_FQ26_LAMBDA = {4: (None, 12), 6: (2, 40)}


@pytest.mark.paper_defect
def test_criterion_4_published_special_values_as_specified():
    # the published record, verbatim
    assert published_fq_lambda(4, 2, 6).value is None
    assert published_fq_lambda(6, 2, 6).value == 2
    # the oracle departs from it at exactly the refuted dimensions
    rows = check_fq_formula(2, 6, list(range(3, 10)), published=True)
    mismatches = {r.n: (r.formula, r.measured) for r in rows if not r.matches}
    ok = mismatches == REFUTED_FQ26_LAMBDA
    _report(4, ok, "published (2,6) values vs oracle over n=3..9: "
                   f"mismatches {mismatches}")
    assert ok, (
        f"published/oracle mismatches {mismatches}, expected exactly "
        f"{REFUTED_FQ26_LAMBDA}: FQ_4 is [2,12,6]-cycle regular and FQ_6 "
        "is [2,40,6]; for FQ_6 the published pair ([1,200,6] and [2,2,6]) "
        "is arithmetically inconsistent (3200 hexagons force 40). "
        'See the README, "Refuted published constants".'
    )
    # FQ_4 is K_{4,4}: a hexagon on the 2-path a-b-c continues to one of the
    # 3 other vertices on b's side, then one of the 2 others on a's side,
    # then one of the 2 remaining on b's side, so lambda = 3*2*2 = 12
    fq4 = generate_folded_cube(FQParams(4))
    side_a = [0] + [v for v in range(1, fq4.n) if not fq4.has_edge(0, v)]
    side_b = [v for v in range(fq4.n) if v not in side_a]
    assert len(side_a) == len(side_b) == 4 and fq4.m == 16
    assert all(fq4.has_edge(a, b) for a in side_a for b in side_b)
    by_hand = (len(side_b) - 1) * (len(side_a) - 2) * (len(side_b) - 2)
    assert by_hand == REFUTED_FQ26_LAMBDA[4][1]
    # FQ_6: the [1,200,6] constant puts 200*|E|/6 hexagons on the graph,
    # each holding 6 of its 2-paths, so the average 2-path lies on 40
    fq6 = generate_folded_cube(FQParams(6))
    edge_hexagons = fq_lambda(6, 1, 6).value
    assert edge_hexagons == published_fq_lambda(6, 1, 6).value == 200
    hexagons, rem = divmod(edge_hexagons * fq6.m, 6)
    two_paths = sum(d * (d - 1) // 2 for d in map(fq6.degree, range(fq6.n)))
    assert rem == 0 and hexagons == 3200 and two_paths == 480
    assert 6 * hexagons == REFUTED_FQ26_LAMBDA[6][1] * two_paths


@pytest.mark.paper_defect
def test_refuted_values_recounted_by_networkx():
    # simple_cycles takes length_bound on undirected graphs from 3.1 on
    nx = pytest.importorskip("networkx", minversion="3.1")
    cases = [  # name, graph, l, m, number of m-cycles, verified lambda
        ("G(8,3)", generate_i_graph(IParams(8, 1, 3)), 1, 8, 30,
         REFUTED_I_LAMBDA[(8, 1, 3)][1]),
        ("G(12,5)", generate_i_graph(IParams(12, 1, 5)), 1, 8, 54,
         REFUTED_I_LAMBDA[(12, 1, 5)][1]),
        ("FQ_4", generate_folded_cube(FQParams(4)), 2, 6, 96,
         REFUTED_FQ26_LAMBDA[4][1]),
        ("FQ_6", generate_folded_cube(FQParams(6)), 2, 6, 3200,
         REFUTED_FQ26_LAMBDA[6][1]),
    ]
    for name, g, l, m, n_cycles, verified in cases:
        cycles = [
            c for c in nx.simple_cycles(nx.Graph(g.edges()), length_bound=m)
            if len(c) == m
        ]
        # m-cycles through each path on l+1 vertices, keyed orientation-free
        on_path = Counter()
        for c in cycles:
            for i in range(m):
                path = tuple(c[(i + t) % m] for t in range(l + 1))
                on_path[min(path, path[::-1])] += 1
        degrees = [g.degree(v) for v in range(g.n)]
        n_paths = g.m if l == 1 else sum(d * (d - 1) // 2 for d in degrees)
        oracle = regularity_scan(g, l, m).lambda_value
        ok = (
            len(cycles) == n_cycles
            and len(on_path) == n_paths
            and set(on_path.values()) == {verified}
            and oracle == verified
        )
        _report(1 if l == 1 else 4, ok,
                f"networkx recount of {name}: {len(cycles)} {m}-cycles, "
                f"per-path counts {sorted(set(on_path.values()))}, "
                f"oracle {oracle}")
        assert ok, (name, len(cycles), len(on_path), set(on_path.values()), oracle)


# ---------------------------------------------------------------------------
# 5. Conjecture check for [1,lambda,8] on folded cubes


@pytest.mark.slow
def test_criterion_5_eight_cycle_conjecture_report():
    rows = check_fq_eight_cycle_conjecture([4, 5, 6, 7, 8])
    assert [r.n for r in rows] == [4, 5, 6, 7, 8]
    verdicts = {}
    for r in rows:
        # the scan must have established regularity for the verdict to
        # mean anything; the formula value is conjectural
        assert r.measured is not None, f"FQ_{r.n} not [1,lambda,8]-regular?"
        assert r.matches == (r.formula == r.measured)
        verdicts[r.n] = "confirmed" if r.matches else f"refuted ({r.measured} != {r.formula})"
    _report(5, True, f"conjecture verdicts: {verdicts}")
    # the three explicitly published values are confirmed by the oracle;
    # the cubic formula is refuted at the odd dimensions
    assert rows[0].measured == 36 and rows[0].matches
    assert rows[2].measured == 3580 and rows[2].matches
    assert rows[4].measured == 10794 and rows[4].matches


# ---------------------------------------------------------------------------
# 6. Round-trip recognition under random relabeling


@pytest.mark.slow
def test_criterion_6_round_trips_and_robustness():
    failures = []

    for p in canonical_i_grid(60):
        g = shuffled(generate_i_graph(p), hash((p.n, p.j, p.k)) & 0xFFFF)
        res = recognize_i_graph(g)
        if (
            not isinstance(res, Certificate)
            or res.canonical_params != (p.n, p.j, p.k)
            or not verify_certificate(g, res)
        ):
            failures.append(("i", p))

    relaxed = []
    for p in dp_grid(40):
        g = shuffled(generate_dp(p), hash((p.n, p.k)) & 0xFFFF)
        res = recognize_dp(g)
        if not isinstance(res, Certificate) or not verify_certificate(g, res):
            failures.append(("dp", p))
            continue
        canon = dp_canonical_params(p)
        if res.canonical_params != (canon.n, canon.k):
            # a verified certificate for different parameters proves an
            # isomorphism beyond the twin rule; the recognizer returns the
            # smallest canonical parametrization it discovers
            if res.canonical_params <= (canon.n, canon.k):
                relaxed.append(((p.n, p.k), res.canonical_params))
            else:
                failures.append(("dp", p))

    for n in range(1, 13):
        g = shuffled(generate_folded_cube(FQParams(n)), 7 * n)
        res = recognize_folded_cube(g)
        if (
            not isinstance(res, Certificate)
            or res.params != (n,)
            or not verify_certificate(g, res)
        ):
            failures.append(("fq", n))

    # robustness: seeded random cubic graphs, zero false accepts
    rng = random.Random(20240817)
    false_accepts = []
    checked_small = 0
    for _ in range(100):
        size = rng.choice(range(6, 62, 2))
        g = random_cubic(size, rng)
        for res in (
            recognize_i_graph(g),
            recognize_dp(g) if size % 4 == 0 and size >= 12 else None,
        ):
            if isinstance(res, Certificate) and not verify_certificate(g, res):
                false_accepts.append(size)
        if size <= 14:
            checked_small += 1
            _cross_check_small(g, false_accepts)

    ok = not failures and not false_accepts
    _report(
        6,
        ok,
        f"round-trips green; {len(relaxed)} DP inputs returned a smaller "
        f"verified-isomorphic parametrization {relaxed[:4]}...; "
        f"{checked_small} small random cubics brute-checked",
    )
    assert not failures, failures
    assert not false_accepts, false_accepts


def _cross_check_small(g, false_accepts):
    """Ground-truth the recognizer verdicts by brute-force isomorphism
    against every family member of matching order (|V| <= 14)."""
    size = g.n
    candidates = []
    n = size // 2
    if n >= 3:
        for j in range(1, (n - 1) // 2 + 1):
            for k in range(j, (n - 1) // 2 + 1):
                candidates.append(generate_i_graph(IParams(n, j, k)))
    truth_i = any(find_isomorphism(g, c) is not None for c in candidates)
    got_i = isinstance(recognize_i_graph(g), Certificate)
    assert got_i == truth_i, f"I-verdict mismatch on {size}-vertex random cubic"
    if size % 4 == 0 and size >= 12:
        nd = size // 4
        dp_candidates = [
            generate_dp(DPParams(nd, k)) for k in range(1, (nd - 1) // 2 + 1)
        ]
        truth_dp = any(find_isomorphism(g, c) is not None for c in dp_candidates)
        got_dp = isinstance(recognize_dp(g), Certificate)
        assert got_dp == truth_dp, f"DP-verdict mismatch on {size}-vertex random cubic"


# ---------------------------------------------------------------------------
# 7. Linearity evidence


def fq_time_bound_ok(rows: list[BenchRow], fit_dims: int = 4, slack: float = 2.5) -> bool:
    """Engineering check that FQ recognition stays within c*|E|*log|V|.

    The constant is fitted on the smallest `fit_dims` dimensions; every run
    must stay under the fitted bound times `slack`.
    """
    by_n: dict[int, list[BenchRow]] = {}
    for r in rows:
        by_n.setdefault(r.n, []).append(r)
    dims = sorted(by_n)
    units = {}
    for n in dims:
        med = sorted(r.elapsed_ns for r in by_n[n])[len(by_n[n]) // 2]
        edges = by_n[n][0].edges
        units[n] = med / (edges * (n - 1))  # log2 |V| = n - 1
    c = max(units[n] for n in dims[:fit_dims])
    return all(units[n] <= slack * c for n in dims)


@pytest.mark.slow
def test_criterion_7_linearity():
    sizes = [1000 * 2**i for i in range(7)]  # 1000 .. 64000
    rows = bench_i_recognition(sizes, repeats=3)  # the median of 3 per size
    per_edge = {}
    for r in rows:
        per_edge.setdefault(r.n, []).append(r.ns_per_edge)
    medians = {n: sorted(v)[len(v) // 2] for n, v in per_edge.items()}
    ratio = max(medians.values()) / min(medians.values())
    ok_i = ratio <= 3.0
    _report(7, ok_i, f"I-graph recognition ns/edge ratio across n=1000..64000: "
                     f"{ratio:.2f} (<= 3 required)")
    assert ok_i, medians

    fq_rows = bench_fq_recognition(list(range(10, 19)), repeats=1)
    ok_fq = fq_time_bound_ok(fq_rows, fit_dims=4, slack=2.5)
    slowest = max(fq_rows, key=lambda r: r.elapsed_ns)
    _report(7, ok_fq, f"FQ recognition within fitted c*|E|*log|V| over n=10..18 "
                      f"(largest run: n={slowest.n}, {slowest.elapsed_ns/1e9:.1f}s)")
    assert ok_fq, [(r.n, r.elapsed_ns) for r in fq_rows]
