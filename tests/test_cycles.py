import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclereg import (
    DPParams,
    FQParams,
    IParams,
    NotCubicError,
    PathTooLongError,
    RegularityReport,
    build_graph,
    count_cycles_through_path,
    generate_dp,
    generate_folded_cube,
    generate_gp,
    generate_hypercube,
    generate_i_graph,
    octagon_partition,
    octagon_value,
    regularity_scan,
)

from cyclereg import cycles

from conftest import (
    count_cycles,
    enumerate_cycles,
    peak_memory,
    random_cubic,
    reference_regularity_scan,
    shuffled,
)

PETERSEN = generate_gp(5, 2)
FQ4 = generate_folded_cube(FQParams(4))
FQ5 = generate_folded_cube(FQParams(5))


def test_petersen_edge_octagon_value():
    for e in list(PETERSEN.edges())[:5]:
        assert octagon_value(PETERSEN, e) == 8


def test_four_cycle_lies_on_itself():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert count_cycles_through_path(c4, (0, 1), 4) == 1


def test_fq5_edge_four_cycles():
    for e in list(FQ5.edges())[:5]:
        assert count_cycles_through_path(FQ5, e, 4) == 4  # n - 1


def test_path_too_long_rejected():
    with pytest.raises(PathTooLongError):
        count_cycles_through_path(PETERSEN, (0, 1, 2, 3), 3)


def test_invalid_seed_rejected():
    with pytest.raises(ValueError):
        count_cycles_through_path(PETERSEN, (0, 0), 8)
    with pytest.raises(ValueError):
        count_cycles_through_path(PETERSEN, (0, 3), 8)  # not an edge


def test_longer_seed_paths():
    # frozen from the independent enumerator: 8-cycles of the Petersen
    # graph containing the 2-path (5, 0, 1)
    expected = sum(
        1
        for c in enumerate_cycles(PETERSEN, 8)
        if _contains_subpath(c, (5, 0, 1))
    )
    assert count_cycles_through_path(PETERSEN, (5, 0, 1), 8) == expected == 4


def _contains_subpath(cycle, path):
    m = len(cycle)
    idx = {v: i for i, v in enumerate(cycle)}
    if any(v not in idx for v in path):
        return False
    for a, b in zip(path, path[1:]):
        if (idx[b] - idx[a]) % m not in (1, m - 1):
            return False
    # consecutive positions must form one arc
    pos = [idx[v] for v in path]
    deltas = {(pos[i + 1] - pos[i]) % m for i in range(len(pos) - 1)}
    return deltas <= {1} or deltas <= {m - 1}


def test_count_symmetric_under_seed_reversal():
    for seed in [(0, 1), (5, 0, 1), (2, 1, 0, 5)]:
        fwd = count_cycles_through_path(PETERSEN, seed, 8)
        back = count_cycles_through_path(PETERSEN, tuple(reversed(seed)), 8)
        assert fwd == back


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_count_reversal_property_on_fq4(rnd):
    # random seed walks in FQ_4
    v = rnd.randrange(FQ4.n)
    path = [v]
    for _ in range(rnd.randrange(3)):
        nxt = [w for w in FQ4.adj[path[-1]] if w not in path]
        if not nxt:
            break
        path.append(rnd.choice(nxt))
    m = rnd.choice([4, 6, 8])
    if len(path) - 1 >= m:
        return
    fwd = count_cycles_through_path(FQ4, tuple(path), m)
    back = count_cycles_through_path(FQ4, tuple(reversed(path)), m)
    assert fwd == back


@pytest.mark.parametrize(
    "g",
    [
        PETERSEN,
        generate_gp(6, 1),
        generate_gp(8, 3),
        FQ4,
        generate_i_graph(IParams(7, 2, 3)),
    ],
    ids=["petersen", "G(6,1)", "G(8,3)", "FQ4", "I(7,2,3)"],
)
@pytest.mark.parametrize("m", [4, 6, 8])
def test_census_against_independent_enumerator(g, m):
    census = count_cycles(g, m)
    assert census == len(enumerate_cycles(g, m))
    # summing per-edge counts over all edges counts each m-cycle m times
    total = sum(count_cycles_through_path(g, e, m) for e in g.edges())
    assert total == m * census


def test_regularity_scan_petersen():
    report = regularity_scan(PETERSEN, 1, 8)
    assert report.is_regular and report.lambda_value == 8


def test_regularity_scan_cube():
    report = regularity_scan(generate_gp(4, 1), 1, 8)
    assert report.is_regular and report.lambda_value == 4


def test_regularity_scan_witness():
    report = regularity_scan(generate_gp(6, 1), 1, 8)
    assert not report.is_regular
    p1, c1, p2, c2 = report.witness
    assert c1 != c2
    assert count_cycles_through_path(generate_gp(6, 1), p1, 8) == c1
    assert count_cycles_through_path(generate_gp(6, 1), p2, 8) == c2


def test_regularity_scan_fq4_two_paths_regular():
    # every 2-path of K_{4,4} lies on exactly 12 hexagons (the published
    # claim of irregularity is refuted by this exhaustive scan)
    report = regularity_scan(FQ4, 2, 6)
    assert report.is_regular and report.lambda_value == 12


def test_regularity_scan_l0():
    report = regularity_scan(PETERSEN, 0, 5)
    assert report.is_regular and report.lambda_value == 6


def _through_counts(cycles, l):
    # path -> number of the enumerated cycles (vertex tuples in cyclic
    # order) that contain it as a subpath on l+1 vertices, either direction
    counts = Counter()
    for cyc in cycles:
        m = len(cyc)
        counts.update({
            tuple(c[(i + s) % m] for s in range(l + 1))
            for c in (cyc, cyc[::-1])
            for i in range(m)
        })
    return counts


def _simple_paths(g, l):
    out = []

    def rec(path):
        if len(path) == l + 1:
            out.append(tuple(path))
            return
        for w in g.adj[path[-1]]:
            if w not in path:
                rec(path + [w])

    for v in range(g.n):
        rec([v])
    return out


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_count_and_scan_against_enumerator_on_mixed_degree_graphs(rnd):
    # random graphs of mixed degree, seeds of 0-3 edges, m from 3 to 8:
    # reaches both the remaining == 2 count and the count at three left
    n = rnd.randint(3, 8)
    density = rnd.uniform(0.2, 0.8)
    g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < density])
    m = rnd.randint(3, 8)
    l = rnd.randint(0, min(3, m - 1))
    expected = _through_counts(enumerate_cycles(g, m), l)
    counts = {p: count_cycles_through_path(g, p, m) for p in _simple_paths(g, l)}
    assert counts == {p: expected[p] for p in counts}
    report = regularity_scan(g, l, m)
    if report.is_regular:
        assert set(counts.values()) <= {report.lambda_value}
        assert counts or report.lambda_value == 0
    else:
        p1, c1, p2, c2 = report.witness
        assert (counts[p1], counts[p2]) == (c1, c2) and c1 != c2


def _scan_pairs(max_m, max_l=None):
    return [(l, m) for m in range(3, max_m + 1) for l in range(m if max_l is None else min(m, max_l + 1))]


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_regularity_scan_equals_the_per_path_reference_on_random_graphs(rnd):
    # mixed degree, edgeless and disconnected graphs on up to 11 vertices:
    # the join's report, witness included, is the per-path oracle's for
    # every 0 <= l < m <= 10
    n = rnd.randint(0, 11)
    density = rnd.choice([0.0, rnd.uniform(0.1, 0.5)])
    cut = rnd.randint(0, n) if rnd.random() < 0.3 else 0  # no edge crosses the cut
    g = build_graph(n, [
        (u, v) for u in range(n) for v in range(u + 1, n)
        if not u < cut <= v and rnd.random() < density
    ])
    for l, m in _scan_pairs(10):
        assert regularity_scan(g, l, m) == reference_regularity_scan(g, l, m), (l, m)


SCAN_CORPUS = {
    **{f"FQ_{n}": (generate_folded_cube(FQParams(n)), _scan_pairs(10)) for n in range(1, 6)},
    # FQ_6 up to m = 8 and l = 4: the oracle's larger cases take a minute
    "FQ_6": (generate_folded_cube(FQParams(6)), _scan_pairs(8, 4)),
    "Q_4": (generate_hypercube(4), _scan_pairs(10)),
    "I(7,2,3)": (generate_i_graph(IParams(7, 2, 3)), _scan_pairs(10)),
    "DP(9,2)": (generate_dp(DPParams(9, 2)), _scan_pairs(10)),
    "G(8,3)": (generate_gp(8, 3), _scan_pairs(10)),
}
# the join depends on which vertex of a cycle is smallest and on the order
# of the halves to each end, so some members come relabeled too
SCAN_CORPUS.update({
    f"shuffled {name}": (shuffled(SCAN_CORPUS[name][0], 1), _scan_pairs(10))
    for name in ("FQ_5", "Q_4", "G(8,3)", "DP(9,2)")
})


@pytest.mark.parametrize("name", SCAN_CORPUS)
def test_regularity_scan_equals_the_per_path_reference_on_members(name):
    g, pairs = SCAN_CORPUS[name]
    for l, m in pairs:
        assert regularity_scan(g, l, m) == reference_regularity_scan(g, l, m), (l, m)


def test_regularity_scan_memory_stays_bounded():
    # the peak is the counts that the join has credited and the scan has
    # not yet read: 260,409 bytes with CPython 3.11 before the clash-mask
    # join, and the bound is that plus 10%
    g = shuffled(generate_hypercube(10), 10)
    assert peak_memory(regularity_scan, g, 1, 4) <= 286_000


@pytest.mark.parametrize("l, m, value", [(1, 9, 1368), (1, 10, 3408), (2, 8, 168)])
def test_regularity_scan_fq5_beyond_the_paper(l, m, value):
    # the per-path oracle's values, beyond the patterns the paper prints
    assert regularity_scan(FQ5, l, m) == RegularityReport(l, m, value)


@pytest.mark.parametrize("member, m, seed", [
    (generate_gp(6000, 2), 8, 3),  # not [1,λ,8]-regular: the witness is at vertex 0
    (generate_hypercube(10), 4, 1),  # edge-transitive: only the switch differs
], ids=["G(6000,2)", "Q_10"])
def test_regularity_scan_stops_at_the_first_mismatch(monkeypatch, member, m, seed):
    # one 2-switch in a relabeled member: the scan joins only the smallest
    # vertices up to the witness's first vertex
    rng = random.Random(seed)
    edges = set(shuffled(member, seed).edges())
    while True:
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        new = {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
        if len({a, b, c, d}) == 4 and not new & edges:
            break
    g = build_graph(member.n, sorted(edges - {(a, b), (c, d)} | new))
    sources = []
    join = cycles._join
    monkeypatch.setattr(cycles, "_join", lambda adj, s, *rest: sources.append(s) or join(adj, s, *rest))
    report = regularity_scan(g, 1, m)
    assert report == reference_regularity_scan(g, 1, m) and not report.is_regular
    assert sources == list(range(report.witness[2][0] + 1))
    assert len(sources) < g.n // 10


def test_octagon_partition_petersen():
    parts = octagon_partition(PETERSEN)
    assert set(parts) == {8}
    assert len(parts[8]) == 15


def test_octagon_partition_prism():
    parts = octagon_partition(generate_gp(3, 1))
    assert set(parts) == {0}
    assert len(parts[0]) == 9


def test_octagon_partition_g61_not_constant():
    parts = octagon_partition(generate_gp(6, 1))
    assert len(parts) >= 2


def _oracle_partition(g):
    parts = {}
    for e in g.edges():
        parts.setdefault(octagon_value(g, e), []).append(e)
    return parts


def _check_join_against_oracle(g):
    # same classes, same edge order within each class, same class order
    assert list(octagon_partition(g).items()) == list(_oracle_partition(g).items())


def _i_and_dp_grid():
    grid = [generate_i_graph(IParams(n, j, k))
            for n in range(3, 21) for j in range(1, (n + 1) // 2) for k in range(j, (n + 1) // 2)]
    grid += [generate_dp(DPParams(n, k)) for n in range(3, 21) for k in range(1, (n + 1) // 2)]
    assert len(grid) == 420
    return grid


def test_octagon_partition_matches_oracle_on_i_and_dp_grids():
    for g in _i_and_dp_grid():
        _check_join_against_oracle(g)


def test_octagon_partition_matches_oracle_on_relabeled_i_and_dp_grids():
    # the identity labels of the generators visit each vertex's halves in
    # one fixed order; relabeling changes which s owns each 8-cycle and the
    # order in which its two halves reach their end
    for seed, g in enumerate(_i_and_dp_grid()):
        _check_join_against_oracle(shuffled(g, seed))


_K4 = build_graph(4, list(itertools.combinations(range(4), 2)))
_K33 = build_graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
_HEAWOOD = build_graph(14, [(i, (i + 1) % 14) for i in range(14)] + [(i, (i + 5) % 14) for i in range(0, 14, 2)])


@pytest.mark.parametrize("g", [
    _K33,
    generate_hypercube(3),
    _HEAWOOD,
    generate_gp(8, 3),  # Moebius-Kantor
    generate_gp(10, 2),  # dodecahedron
    generate_gp(10, 3),  # Desargues
    build_graph(10, list(_K4.edges()) + [(a + 4, b + 4) for a, b in _K33.edges()]),
], ids=["K33", "Q3", "Heawood", "G(8,3)", "G(10,2)", "G(10,3)", "K4+K33"])
def test_octagon_partition_matches_oracle_on_symmetric_cubic(g):
    # up to six halves from one s share an end here, all of K_3,3's and
    # none of them disjoint
    _check_join_against_oracle(g)
    _check_join_against_oracle(shuffled(g, g.n))


def test_octagon_partition_holds_no_end_table():
    # the end tables are freed before the classes are built, so the peak
    # stays near the size of the result (1.2x; 1.9x with the tables kept)
    g = shuffled(generate_gp(4000, 2), 4000)
    tracemalloc.start()
    try:
        parts = octagon_partition(g)
        result = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del parts
    peak = peak_memory(octagon_partition, g)
    assert peak <= 1.5 * result, (peak, result)


@given(st.integers(2, 59), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_octagon_partition_matches_oracle_on_random_cubic(half, seed):
    _check_join_against_oracle(random_cubic(2 * half, random.Random(seed)))


def test_octagon_partition_requires_cubic():
    with pytest.raises(NotCubicError):
        octagon_partition(FQ4)


def test_fq_cycle_label_parity_remark():
    # every cycle uses each role label an all-even or all-odd number of
    # times; sample full enumerations on small folded cubes
    for g, m in [(FQ4, 4), (FQ4, 6), (FQ5, 4), (FQ5, 5), (FQ5, 6)]:
        cycles = enumerate_cycles(g, m)
        assert cycles, (g.n, m)
        labels = {a ^ b for a, b in g.edges()}  # dimension, or the diagonal mask
        for cyc in cycles:
            counts = dict.fromkeys(labels, 0)
            for i in range(m):
                counts[cyc[i] ^ cyc[(i + 1) % m]] += 1
            parities = {c % 2 for c in counts.values()}
            assert len(parities) == 1, (cyc, counts)
