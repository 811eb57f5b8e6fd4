import ast
import dataclasses
import functools
import hashlib
import importlib.util
import random
import sys
import tracemalloc
from collections import Counter
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclereg import (
    Certificate,
    DPParams,
    FQParams,
    IParams,
    Rejection,
    build_graph,
    canonical_i_params,
    connected_components,
    dp_canonical_params,
    find_isomorphism,
    generate_dp,
    generate_folded_cube,
    generate_gp,
    generate_hypercube,
    generate_i_graph,
    is_regular,
    recognize,
    recognize_dp,
    recognize_folded_cube,
    recognize_i_graph,
    verify_certificate,
    vertex_name,
)
from cyclereg.recognition import (
    determine_diagonals,
    exact_dp_isomorphism,
    exact_i_isomorphism,
    extend_fq,
    extend_i,
)
from cyclereg.scans import canonical_i_grid, dp_grid
from cyclereg.tables import CYCLE_REGULAR_DP, CYCLE_REGULAR_I

from conftest import enumerate_cycles, peak_memory, random_cubic, reference_member_edges, shuffled


def _spoke_edges(g):
    """Spokes u_i w_i of a generated I-graph: by the id convention w_i = n + i."""
    return [(a, b) for a, b in g.edges() if b - a == g.n // 2]


def _accept(res):
    assert isinstance(res, Certificate), res
    return res


# ---------------------------------------------------------------------------
# I-graphs


def test_i_round_trip_basic():
    g = shuffled(generate_i_graph(IParams(12, 2, 3)), 1)
    cert = _accept(recognize_i_graph(g))
    assert cert.canonical_params == (12, 2, 3)
    assert verify_certificate(g, cert)


def test_petersen_any_vertex_order():
    for seed in range(5):
        g = shuffled(generate_gp(5, 2), seed)
        cert = _accept(recognize_i_graph(g))
        assert cert.canonical_params == (5, 1, 2)


def test_k4_rejected():
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert isinstance(recognize_i_graph(k4), Rejection)


def test_k33_rejected():
    k33 = build_graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
    assert isinstance(recognize_i_graph(k33), Rejection)


def test_non_cubic_rejected():
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    res = recognize_i_graph(c5)
    assert isinstance(res, Rejection) and res.reason == "not-cubic"


def test_i_round_trip_canonical_grid_small():
    for n in range(3, 21):
        for j in range(1, (n - 1) // 2 + 1):
            for k in range(j, (n - 1) // 2 + 1):
                if gcd(gcd(n, j), k) != 1:
                    continue
                p = IParams(n, j, k)
                if canonical_i_params(p) != p:
                    continue
                g = shuffled(generate_i_graph(p), n * 997 + j * 31 + k)
                cert = _accept(recognize_i_graph(g))
                assert cert.canonical_params == (p.n, p.j, p.k)
                assert verify_certificate(g, cert)


def test_i_recognizes_noncanonical_parameters():
    # j = k collapses to the prism family
    g = shuffled(generate_i_graph(IParams(5, 2, 2)), 3)
    cert = _accept(recognize_i_graph(g))
    assert cert.canonical_params == (5, 1, 1)


def test_disconnected_i_graph_accepted_as_copies():
    g = shuffled(generate_i_graph(IParams(6, 2, 2)), 11)
    cert = _accept(recognize_i_graph(g))
    assert cert.params == (6, 2, 2)
    assert verify_certificate(g, cert)


def test_disconnected_non_i_rejected():
    prism = generate_i_graph(IParams(3, 1, 1))
    pet = generate_gp(5, 2)
    edges = list(prism.edges()) + [(a + 6, b + 6) for a, b in pet.edges()]
    g = build_graph(16, edges)
    assert isinstance(recognize_i_graph(g), Rejection)


def test_extend_i_cycle_collection_shape():
    g = generate_i_graph(IParams(12, 2, 3))
    spokes = _spoke_edges(g)
    cert = _accept(extend_i(g, spokes))
    assert cert.canonical_params == (12, 2, 3)
    # the complement of the spokes splits into 2 outer 6-cycles and
    # 3 inner 4-cycles (gcd structure)
    from cyclereg.recognition import _frame

    _, _, cycles = _frame(g, spokes)
    lengths = sorted(len(c) for c in cycles)
    assert lengths == [4, 4, 4, 6, 6]


def test_exact_i_isomorphism_with_true_spokes():
    g = generate_gp(7, 2)
    res = exact_i_isomorphism(g, _spoke_edges(g))
    assert not isinstance(res, Rejection)
    params, labeling = res
    assert canonical_i_params(params) == IParams(7, 1, 2)
    assert len(labeling) == g.n


def test_exact_i_isomorphism_wrong_matching_rejected():
    # Moebius-Kantor with a perfect matching that is not a spoke set
    g = generate_gp(8, 3)
    wrong = [(0, 1), (2, 3), (4, 5), (6, 7),  # alternating outer edges
             (8, 11), (14, 9), (12, 15), (10, 13)]  # alternating inner edges
    for u, v in wrong:
        assert g.has_edge(u, v)
    assert len({x for e in wrong for x in e}) == 16
    res = extend_i(g, [tuple(sorted(e)) for e in wrong])
    assert isinstance(res, Rejection)


_G10_3 = generate_gp(10, 3)  # 20 vertices: an order both I- and DP-graphs allow
_G10_3_SPOKES = [(i, 10 + i) for i in range(10)]
_NOT_2_REGULAR = ("partition-shape", "complement of spokes is not 2-regular")
_NOT_A_MATCHING = ("partition-shape", "spoke candidate is not a perfect matching")


def _g10_3_edited(drop=(), add=()):
    return build_graph(20, [e for e in _G10_3.edges() if e not in drop] + list(add))


@pytest.mark.parametrize("g, spokes, expected", [
    # spokes that are not edges of g
    (_G10_3, [(i, 10 + (i + 1) % 10) for i in range(10)], _NOT_2_REGULAR),
    # not cubic: u_0 and w_0 lose their spoke, which stays in the matching,
    # so both keep two non-spoke neighbours and pass the 2-regular check
    (_g10_3_edited(drop=[(0, 10)]), _G10_3_SPOKES, ("labeling-inconsistent", "")),
    # not cubic: u_0 and u_1 keep their spoke and one rim edge
    (_g10_3_edited(drop=[(0, 1)]), _G10_3_SPOKES, _NOT_2_REGULAR),
    # not cubic: u_0 and u_5 of degree 4
    (_g10_3_edited(add=[(0, 5)]), _G10_3_SPOKES, _NOT_2_REGULAR),
    # neither a matching nor a rim: the first ten edges
    (_G10_3, list(_G10_3.edges())[:10], _NOT_A_MATCHING),
    # the outer rim is a class, but not a matching
    (_G10_3, [(i, i + 1) for i in range(9)] + [(0, 9)], _NOT_A_MATCHING),
    # spoke ids outside 0..19
    (_G10_3, [(0, 99)] + _G10_3_SPOKES[1:], _NOT_A_MATCHING),
    (_G10_3, [(0, -10)] + _G10_3_SPOKES[1:], _NOT_A_MATCHING),
], ids=["non-edge spokes", "degree 2, spoke kept", "degree 2, rim edge gone", "degree 4",
        "not a matching", "rim as spokes", "spoke id too large", "negative spoke id"])
def test_spoke_frame_rejections_pinned(g, spokes, expected):
    for res in (exact_i_isomorphism(g, spokes), exact_dp_isomorphism(g, spokes), extend_i(g, spokes)):
        assert isinstance(res, Rejection) and (res.reason, res.detail) == expected


def test_spoke_candidate_of_a_class():
    # a rim class gives the non-class edges at its vertices in g.edges()
    # order; a class that is neither a matching nor a rim gives none
    from cyclereg.recognition import _spoke_candidate

    rim = [(i, i + 1) for i in range(9)] + [(0, 9)]
    assert _spoke_candidate(_G10_3, sorted(rim)) == _G10_3_SPOKES
    inner = [e for e in _G10_3.edges() if e[0] >= 10]
    assert _spoke_candidate(_G10_3, inner) == _G10_3_SPOKES
    assert _spoke_candidate(_G10_3, _G10_3_SPOKES) == _G10_3_SPOKES
    assert _spoke_candidate(_G10_3, list(_G10_3.edges())[:10]) is None


def test_constant_octagon_branch_all_specials():
    for n, j, k in [(3, 1, 1), (4, 1, 1), (5, 1, 2), (8, 1, 3), (10, 1, 2),
                    (10, 1, 3), (12, 1, 5), (13, 1, 5), (24, 1, 5), (26, 1, 5)]:
        g = shuffled(generate_i_graph(IParams(n, j, k)), n + k)
        cert = _accept(recognize_i_graph(g))
        assert cert.canonical_params == (n, j, k)


def _respoked(p, w_of, rng):
    """I(n,j,k) with the spoke of each u_i moved to w_{w_of[i]}, then
    relabeled: the rims are untouched, only the matching between them moves.
    Returns the graph and its (relabeled) spokes."""
    n = p.n
    order, edges = reference_member_edges(p)
    spokes = [(i, n + w_of[i]) for i in range(n)]
    edges = [(a, b) for a, b in edges if b - a != n] + spokes
    perm = list(range(order))
    rng.shuffle(perm)
    g = build_graph(order, [(perm[a], perm[b]) for a, b in edges])
    return g, [(perm[a], perm[b]) for a, b in spokes]


def _spoke_swapped(p, seed):
    """I(n,j,k) with the w-ends of 1-3 seeded pairs of spokes swapped."""
    rng = random.Random(seed)
    w_of = list(range(p.n))
    picked = rng.sample(range(p.n), 2 * rng.randint(1, 3))
    for a, b in zip(picked[::2], picked[1::2]):
        w_of[a], w_of[b] = w_of[b], w_of[a]
    return _respoked(p, w_of, rng)


def _spoke_reflected(p, seed):
    """I(n,j,k) with the spokes of the inner cycle through w_0 reflected:
    u_{sk} goes to w_{-sk}.  Where that cycle has all n w's, this is an
    automorphism of it and the graph stays a member."""
    n, k = p.n, p.k
    w_of = list(range(n))
    for s in range(n // gcd(n, k)):
        w_of[s * k % n] = -s * k % n
    return _respoked(p, w_of, random.Random(seed))


def test_spoke_swapped_multi_rim_near_misses():
    # both rims split (gcd(n,j) > 1 and gcd(n,k) > 1) in a connected member,
    # so the labeling walks a shadow rim for every input; each result is a
    # rejection or a certificate that verifies
    accepted = 0
    for n in range(3, 31):
        for j in range(1, (n + 1) // 2):
            for k in range(1, (n + 1) // 2):
                if gcd(n, j) == 1 or gcd(n, k) == 1 or gcd(gcd(n, j), k) > 1:
                    continue
                for s in range(3):
                    g, spokes = _spoke_swapped(IParams(n, j, k), n * 997 + j * 31 + k + s)
                    for res in (extend_i(g, spokes), recognize(g)):
                        assert isinstance(res, Rejection) or verify_certificate(g, res), (n, j, k)
                        accepted += isinstance(res, Certificate)
    assert accepted > 0


def test_i_labeling_attempts_bounded(monkeypatch):
    # k is read off the inner walk, so each orientation of the inner cycle
    # through w_0 gives at most one labeling to replay, and of two n-cycle
    # rims only the first is labeled: a near-miss costs O(n), not O(n) per k
    import cyclereg.recognition as recognition

    calls = Counter()
    for name in ("_i_complete", "_i_label_attempt"):
        def counted(*args, _f=getattr(recognition, name), _name=name):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(recognition, name, counted)
    for p, a, most in ((IParams(3660, 60, 61), 60, 2), (IParams(61, 1, 11), 1, 0)):
        w_of = list(range(p.n))
        w_of[0], w_of[a] = a, 0
        g, spokes = _respoked(p, w_of, random.Random(1))
        calls.clear()
        res = exact_i_isomorphism(g, spokes)
        assert isinstance(res, Rejection) and res.reason == "labeling-inconsistent"
        assert calls["_i_label_attempt"] == 1 and calls["_i_complete"] <= most, (p, calls)


def test_i_rim_labeling_refuses_k_of_half_n():
    # two 6-cycle rims, the inner one w0 w3 w1 w4 w2 w5: k = 3 = n/2 read
    # off w0's first inner neighbour is no I(6,1,k), so the labeler
    # proposes nothing, where a replay against I(6,1,3) would raise
    rims = [(i, (i + 1) % 6) for i in range(6)]
    rims += [(6 + a, 6 + b) for a, b in zip((0, 3, 1, 4, 2, 5), (3, 1, 4, 2, 5, 0))]
    spokes = [(i, 6 + i) for i in range(6)]
    g = build_graph(12, rims + spokes)
    assert exact_i_isomorphism(g, spokes) == Rejection("labeling-inconsistent")


def test_multi_rim_certificates_and_reflected_near_misses_pinned():
    # every connected I(n,j,k) with 25 <= n <= 60 whose rims both split, so
    # that its labeling reads k off the inner walk: the certificate of one
    # relabeling, and exact_i_isomorphism on its reflected-spoke near-miss
    digest = hashlib.sha256()
    for n in range(25, 61):
        for j in range(1, (n + 1) // 2):
            for k in range(1, (n + 1) // 2):
                if gcd(n, j) == 1 or gcd(n, k) == 1 or gcd(gcd(n, j), k) > 1:
                    continue
                seed = n * 997 + j * 31 + k
                _pin(digest, recognize_i_graph(shuffled(generate_i_graph(IParams(n, j, k)), seed)))
                res = exact_i_isomorphism(*_spoke_reflected(IParams(n, j, k), seed))
                key = res if isinstance(res, Rejection) else (res[0], sorted(res[1].items()))
                digest.update(repr(key).encode())
    assert digest.hexdigest() == "406cc488da2a2d3be4203d03e0c257487e2b56b9cb07becc17c511148c656199"


def _pin(digest, res):
    """Add (family, params, canonical params, labeling) of a certificate to
    a digest: a change that keeps the certificates keeps the digest."""
    cert = _accept(res)
    key = (cert.family, cert.params, cert.canonical_params, sorted(cert.labeling.items()))
    digest.update(repr(key).encode())


def test_certificates_pinned():
    digest = hashlib.sha256()
    for n in range(3, 25):
        for j in range(1, (n + 1) // 2):
            for k in range(1, (n + 1) // 2):
                g = shuffled(generate_i_graph(IParams(n, j, k)), n * 997 + j * 31 + k)
                _pin(digest, recognize(g))
    for n in range(3, 15):
        for k in range(1, (n + 1) // 2):
            _pin(digest, recognize_dp(shuffled(generate_dp(DPParams(n, k)), n * 997 + k)))
    for p in (IParams(60, 4, 15), IParams(1200, 4, 9)):
        _pin(digest, recognize(shuffled(generate_i_graph(p), p.n * 997 + p.j * 31 + p.k)))
    assert digest.hexdigest() == "e3c88685b58f9e0ca8303b27324eb385ec40a437a53d4bc68086683e23fcba98"


# ---------------------------------------------------------------------------
# DP-graphs


def test_dp_round_trip_basic():
    g = shuffled(generate_dp(DPParams(10, 2)), 5)
    cert = _accept(recognize_dp(g))
    assert cert.canonical_params == (10, 2)
    assert verify_certificate(g, cert)


def test_dp_twin_collapses_to_canonical():
    g = shuffled(generate_dp(DPParams(10, 3)), 6)
    cert = _accept(recognize_dp(g))
    assert cert.canonical_params == (10, 2)


def test_dodecahedron_accepted_as_dp():
    g = shuffled(generate_gp(10, 2), 7)
    cert = _accept(recognize_dp(g))
    assert cert.canonical_params == (5, 2)


def test_dp_round_trip_grid_small():
    for n in range(3, 17):
        for k in range(1, (n - 1) // 2 + 1):
            p = DPParams(n, k)
            g = shuffled(generate_dp(p), n * 131 + k)
            cert = _accept(recognize_dp(g))
            assert verify_certificate(g, cert)
            canon = dp_canonical_params(p)
            # the certificate itself proves the returned parameters
            # reproduce the input; extra DP isomorphisms beyond the twin
            # rule exist, so equality with the twin-minimum may relax to
            # an explicitly verified equivalence
            if cert.canonical_params != (canon.n, canon.k):
                alt = generate_dp(DPParams(*cert.params))
                assert find_isomorphism(alt, generate_dp(p)) is not None


@pytest.mark.parametrize("n,k,expected", [(6, 2, (6, 1)), (12, 5, (12, 1)),
                                          (14, 3, (14, 2)), (16, 5, (16, 3))])
def test_dp_minimum_rank_parametrization_pinned(n, k, expected):
    # here the first structural candidate is not the one of minimum
    # canonical k, so the choice among candidates decides the output
    for seed in (1, 2):
        g = shuffled(generate_dp(DPParams(n, k)), seed)
        for recognizer in (recognize_dp, recognize):
            cert = _accept(recognizer(g))
            assert cert.family == "dp-graph"
            assert cert.params == cert.canonical_params == expected


def test_dp_certificates_pinned_beyond_n_14():
    # every DP(n,k) with 15 <= n <= 40 under one relabeling; this holds every
    # k = n/4 member, where both arcs of the x-rim give k and the frame's
    # orientation of the x-rim decides which walk comes first
    digest = hashlib.sha256()
    for n in range(15, 41):
        for k in range(1, (n + 1) // 2):
            _pin(digest, recognize_dp(shuffled(generate_dp(DPParams(n, k)), n * 997 + k)))
    assert digest.hexdigest() == "4ba577e0fa18b98c19541bfa0a8c6d4cca582de73a257bd6d2183a79dc0cb723"


def test_dp_certificates_are_in_their_canonical_frame():
    # a DP certificate's labeling names vertices in the frame of
    # cert.params, and for DP that is always the canonical pair (for I it
    # need not be)
    grid = dp_grid(40)
    assert len(grid) == 380
    for p in grid:
        cert = _accept(recognize_dp(shuffled(generate_dp(p), p.n * 131 + p.k)))
        assert cert.params == cert.canonical_params, p


def _dp_adjacent(n, k, a, b):
    """DP(n,k) adjacency from the definition, on u, w, x, y at offsets 0, n,
    2n, 3n: the u- and x-rims, the spokes u_i w_i and x_i y_i, and the
    crossed inner edges w_i y_{i+k}, y_i w_{i+k}."""
    (sa, i), (sb, j) = sorted((divmod(a, n), divmod(b, n)))
    d = (j - i) % n
    if sa == sb:
        return sa in (0, 2) and d in (1, n - 1)
    if (sa, sb) in ((0, 1), (2, 3)):
        return d == 0
    return (sa, sb) == (1, 3) and d in (k, n - k)


@functools.cache
def _short_cycle_profile(edges):
    """The sorted per-vertex counts of 3- to 6-cycles, an isomorphism
    invariant."""
    import networkx as nx

    counts = {}
    for cycle in nx.simple_cycles(nx.Graph(edges), length_bound=6):
        for v in cycle:
            counts.setdefault(v, [0] * 4)[len(cycle) - 3] += 1
    return sorted(map(tuple, counts.values()))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(3, 15), switches=st.integers(0, 3), seed=st.integers(0, 2**32))
def test_dp_near_misses_against_networkx(n, switches, seed):
    # DP(n,k) after 0-3 random 2-switches, relabeled: recognize_dp accepts
    # exactly when the graph is isomorphic to some DP(n,k'), with a
    # certificate that replays against the rule above.  A rejection is
    # proven by the short-cycle counts, and by VF2++ where they agree
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    member = generate_dp(DPParams(n, rng.randint(1, (n - 1) // 2)))
    edges = set(member.edges())
    for _ in range(switches):
        edges = _two_switch(edges, rng)
    g = shuffled(build_graph(member.n, sorted(edges)), seed)
    res = recognize_dp(g)
    if isinstance(res, Certificate):
        assert res.family == "dp-graph" and res.params[0] == n
        ids = {v: "uwxy".index(name[0]) * n + int(name[1:]) for v, name in res.labeling.items()}
        assert sorted(ids) == sorted(ids.values()) == list(range(g.n))
        assert all(_dp_adjacent(n, res.params[1], ids[a], ids[b]) for a, b in g.edges())
        return
    profile = _short_cycle_profile(tuple(g.edges()))
    for k in range(1, (n + 1) // 2):
        other = tuple(generate_dp(DPParams(n, k)).edges())
        assert profile != _short_cycle_profile(other) or not nx.vf2pp_is_isomorphic(
            nx.Graph(list(g.edges())), nx.Graph(other)), (k, res)


@settings(max_examples=400, deadline=None)
@given(n=st.integers(3, 15), switches=st.integers(0, 3), seed=st.integers(0, 2**32))
def test_i_near_misses_against_networkx(n, switches, seed):
    # I(n,j,k) with any j and k, disconnected members included, after 0-3
    # random 2-switches, relabeled: recognize_i_graph accepts exactly when
    # the graph is isomorphic to some I(n,j',k'), with a certificate that
    # replays against the reference edge rule.  A rejection is proven by
    # the short-cycle counts, and by VF2++ where they agree
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    half = (n - 1) // 2
    member = generate_i_graph(IParams(n, rng.randint(1, half), rng.randint(1, half)))
    edges = set(member.edges())
    for _ in range(switches):
        edges = _two_switch(edges, rng)
    g = shuffled(build_graph(member.n, sorted(edges)), seed)
    res = recognize_i_graph(g)
    if isinstance(res, Certificate):
        assert res.family == "i-graph" and res.params[0] == n
        ids = {v: "uw".index(name[0]) * n + int(name[1:]) for v, name in res.labeling.items()}
        assert sorted(ids) == sorted(ids.values()) == list(range(g.n))
        _, reference = reference_member_edges(IParams(*res.params))
        assert {tuple(sorted((ids[a], ids[b]))) for a, b in g.edges()} == {
            tuple(sorted(e)) for e in reference}
        return
    profile = _short_cycle_profile(tuple(g.edges()))
    for j in range(1, half + 1):
        for k in range(j, half + 1):
            other = tuple(generate_i_graph(IParams(n, j, k)).edges())
            assert profile != _short_cycle_profile(other) or not nx.vf2pp_is_isomorphic(
                nx.Graph(list(g.edges())), nx.Graph(other)), (j, k, res)


def test_dp_rejects_petersen():
    assert isinstance(recognize_dp(shuffled(generate_gp(5, 2), 1)), Rejection)


def test_dp_rejects_wrong_order():
    g = shuffled(generate_gp(7, 2), 2)  # 14 vertices, not divisible by 4
    res = recognize_dp(g)
    assert isinstance(res, Rejection)


# ---------------------------------------------------------------------------
# folded cubes


@pytest.mark.parametrize("n", list(range(1, 11)))
def test_fq_round_trip(n):
    g = shuffled(generate_folded_cube(FQParams(n)), n)
    cert = _accept(recognize_folded_cube(g))
    assert cert.params == (n,)
    assert verify_certificate(g, cert)


def test_fq_determine_diagonals_fq5():
    # from the seed edge (0, 1), unrelabeled FQ_n peels the dimension-0
    # matching, one pivot per diagonal except the last one found
    for n in range(3, 12):
        g = generate_folded_cube(FQParams(n))
        state = determine_diagonals(g)
        assert not isinstance(state, Rejection)
        diag = state.diagonals
        assert diag == [(v, v ^ 1) for v in range(0, g.n, 2)]
        assert state.pivots == g.n // 2 - 1
        assert len({v for e in diag for v in e}) == g.n  # perfect matching
        rest = [e for e in g.edges() if e not in set(diag)]
        assert is_regular(build_graph(g.n, rest), n - 1)


def test_fq3_any_matching_of_k4():
    g = generate_folded_cube(FQParams(3))
    state = determine_diagonals(g)
    assert len(state.diagonals) == 2


def test_determine_diagonals_isolated_seed_vertex():
    res = determine_diagonals(build_graph(4, [(1, 2), (2, 3), (1, 3)]))
    assert isinstance(res, Rejection) and res.reason == "disconnected"


def test_extend_fq_true_diagonals():
    g = generate_folded_cube(FQParams(6))
    cert = _accept(extend_fq(g))
    assert cert.params == (6,)
    assert cert == recognize_folded_cube(g)
    # the first edge of vertex 0, (0, 1), is taken as a diagonal, so its
    # class, the dimension-0 edges, carries complementary names
    flip = str.maketrans("01", "10")
    assert all(cert.labeling[v ^ 1] == cert.labeling[v].translate(flip) for v in range(g.n))


NOT_ISOMORPHIC = Rejection("not-isomorphic", "certificate failed verification")


def test_extend_fq_bad_matching_rejected():
    # Q_3 plus a matching of non-complementary pairs: 4-regular on 8
    # vertices, but with triangles, so not K_4,4 = FQ_4
    q3 = generate_hypercube(3)
    bad = [(0, 3), (1, 2), (4, 7), (5, 6)]
    g = build_graph(8, list(q3.edges()) + bad)
    assert extend_fq(g) == recognize_folded_cube(g) == NOT_ISOMORPHIC


@pytest.mark.parametrize("n", list(range(3, 11)))
def test_fq_labeling_pinned_at_vertex_0_and_its_neighbours(n):
    # the labeling is fixed by vertex 0 (all zeros), its first neighbour
    # (all ones, the diagonal) and its other neighbours in ascending id
    # order (bits size/2, size/4, ...)
    p = FQParams(n)
    g = shuffled(generate_folded_cube(p), 100 + n)
    cert = _accept(recognize_folded_cube(g))
    assert cert == extend_fq(g)
    assert verify_certificate(g, cert)
    size = g.n
    assert cert.labeling[0] == "0" * (n - 1)
    assert cert.labeling[g.adj[0][0]] == "1" * (n - 1)
    cube_nbrs = g.adj[0][1:]
    assert len(cube_nbrs) == n - 1
    for i, y in enumerate(cube_nbrs):
        assert cert.labeling[y] == vertex_name(p, size >> (i + 1))


@pytest.mark.parametrize("n", list(range(3, 13)))
def test_determine_diagonals_are_the_complementary_label_pairs(n):
    # the paper's peeling, kept as the reference: the diagonals it finds are
    # exactly the edges whose certificate labels are complements
    g = shuffled(generate_folded_cube(FQParams(n)), 300 + n)
    cert = _accept(recognize_folded_cube(g))
    flip = str.maketrans("01", "10")
    complementary = [
        (a, b) for a, b in g.edges() if cert.labeling[b] == cert.labeling[a].translate(flip)
    ]
    assert len(complementary) == g.n // 2
    assert determine_diagonals(g).diagonals == complementary


def _with_antipodes(size, cube_edges, seed=None):
    """The graph of `cube_edges` plus the antipodal matching v ~ v ^ (size-1),
    under a random relabeling unless `seed` is None."""
    perm = list(range(size))
    if seed is not None:
        random.Random(seed).shuffle(perm)
    diag = [(v, v ^ (size - 1)) for v in range(size // 2)]
    return build_graph(size, [(perm[a], perm[b]) for a, b in cube_edges + diag])


@pytest.mark.parametrize("w", [4, 5, 6, 7])
@pytest.mark.parametrize("seed", [None, 1])  # None: vertex 0 sits on the switch
def test_extend_fq_rejects_two_switched_bipartite_hypercube(w, seed):
    # 2-switch (0,1),(6,7) -> (0,7),(1,6) in Q_w: both new edges join an
    # even and an odd vertex, so the part stays w-regular and bipartite
    # and keeps Q_w's edge count, but it loses 4-cycles and is no hypercube
    q = generate_hypercube(w)
    edges = sorted(set(q.edges()) - {(0, 1), (6, 7)} | {(0, 7), (1, 6)})
    part = build_graph(q.n, edges)
    assert is_regular(part, w) and part.m == q.m
    assert all(bin(a).count("1") % 2 != bin(b).count("1") % 2 for a, b in edges)
    assert len(enumerate_cycles(part, 4)) < len(enumerate_cycles(q, 4))
    g = _with_antipodes(q.n, edges, seed)
    assert extend_fq(g) == recognize_folded_cube(g) == NOT_ISOMORPHIC


@pytest.mark.parametrize("w", [4, 5])
def test_extend_fq_rejects_non_bipartite_part(w):
    # 2-switch (0,1),(6,7) -> (0,6),(1,7): the triangle 0-2-6 appears
    q = generate_hypercube(w)
    edges = sorted(set(q.edges()) - {(0, 1), (6, 7)} | {(0, 6), (1, 7)})
    g = _with_antipodes(q.n, edges, w)
    assert extend_fq(g) == recognize_folded_cube(g) == NOT_ISOMORPHIC


@pytest.mark.parametrize("w", [3, 4, 5, 6])
@pytest.mark.parametrize("seed", [None, 2])
def test_extend_fq_rejects_part_whose_labels_are_a_bijection(w, seed):
    # Q_w with its top vertex moved from the w vertices below it to the w
    # unit vertices: same edge count, bipartite, but the unit vertices gain
    # a neighbour and the ones below the top lose one, so the whole graph is
    # not regular; `extend_fq` rejects it before any labeling
    size = 1 << w
    top = size - 1
    cube = generate_hypercube(w).edges()
    edges = [e for e in cube if top not in e] + [(1 << b, top) for b in range(w)]
    g = _with_antipodes(size, edges, seed)
    expected = Rejection("not-regular", f"expected an {w + 1}-regular graph")
    assert extend_fq(g) == recognize_folded_cube(g) == expected


@pytest.mark.parametrize("w", [4, 5, 6])
def test_extend_fq_rejects_disconnected_bipartite_part(w):
    # two copies of a w-regular bipartite circulant on 2^(w-1) vertices:
    # Q_w's order, degree and edge count, bipartite, but disconnected
    half = 1 << (w - 1)
    m = half // 2
    one = [(i, m + (i + j) % m) for i in range(m) for j in range(w)]
    edges = one + [(a + half, b + half) for a, b in one]
    g = _with_antipodes(2 * half, edges, w)
    assert extend_fq(g) == recognize_folded_cube(g) == NOT_ISOMORPHIC


def test_extend_fq_rejects_unreached_vertex():
    # two disjoint copies of FQ_4 = K_4,4: 5-regular on 16 vertices fails
    # the degree test, so pad each copy to FQ_5's degree with a perfect
    # matching inside it; the BFS from vertex 0 stays in one copy
    k44 = [(a, b) for a in range(4) for b in range(4, 8)]
    one = k44 + [(0, 1), (2, 3), (4, 5), (6, 7)]
    g = build_graph(16, one + [(a + 8, b + 8) for a, b in one])
    assert is_regular(g, 5)
    assert extend_fq(g) == recognize_folded_cube(g) == Rejection("disconnected")


def _two_switch(edges, rng, tries=200):
    """One degree-preserving 2-switch ab, cd -> ad, cb of the edge set, or
    none within `tries` draws (K_4 has none)."""
    pool = sorted(edges)
    for _ in range(tries):
        (a, b), (c, d) = rng.sample(pool, 2)
        if rng.random() < 0.5:
            c, d = d, c
        ad, cb = tuple(sorted((a, d))), tuple(sorted((c, b)))
        if len({a, b, c, d}) == 4 and ad not in edges and cb not in edges:
            return edges - {(a, b), tuple(sorted((c, d)))} | {ad, cb}
    return edges


def _square_profile(g):
    """The sorted per-edge 4-cycle counts, an isomorphism invariant."""
    adj = [set(nb) for nb in g.adj]
    return sorted(sum(len(adj[a] & adj[v]) - 1 for a in adj[u] if a != v)
                  for u, v in g.edges())


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from(range(3, 8)), switches=st.integers(0, 3), seed=st.integers(0, 2**32))
def test_fq_near_misses_against_networkx(n, switches, seed):
    # FQ_n after 0-3 random 2-switches, relabeled: accepted exactly when it
    # is still isomorphic to FQ_n, with a certificate that verifies
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    member = generate_folded_cube(FQParams(n))
    edges = set(member.edges())
    for _ in range(switches):
        edges = _two_switch(edges, rng)
    g = shuffled(build_graph(member.n, sorted(edges)), seed)
    isomorphic = _square_profile(g) == _square_profile(member) and nx.vf2pp_is_isomorphic(
        nx.Graph(list(g.edges())), nx.Graph(list(member.edges())))
    res = recognize_folded_cube(g)
    if isinstance(res, Certificate):
        assert verify_certificate(g, res) and res.params == (n,)
    assert isinstance(res, Certificate) == isomorphic, res


def test_fq_rejects_non_fq_circulant():
    # 4-regular circulant C8(1,2) has the right degree but 8 = 2^3 vertices
    # demand degree 4; it is not a folded cube
    edges = []
    for i in range(8):
        edges.append(tuple(sorted((i, (i + 1) % 8))))
        edges.append(tuple(sorted((i, (i + 2) % 8))))
    g = build_graph(8, sorted(set(edges)))
    assert is_regular(g, 4)
    assert isinstance(recognize_folded_cube(g), Rejection)


def test_fq4_certificate_on_independent_k44():
    k44 = build_graph(8, [(a, b) for a in range(4) for b in range(4, 8)])
    cert = _accept(recognize_folded_cube(k44))
    assert cert.params == (4,)
    assert verify_certificate(k44, cert)


def test_fq_rejects_hypercube_itself():
    # Q_4 is 4-regular on 16 vertices; the folded-cube shape wants
    # degree 5 at that order
    res = recognize_folded_cube(generate_hypercube(4))
    assert isinstance(res, Rejection)


# ---------------------------------------------------------------------------
# certificates, auto recognition, robustness


def test_verify_certificate_detects_swapped_names():
    g = generate_gp(5, 2)
    cert = _accept(recognize_i_graph(g))
    labeling = dict(cert.labeling)
    a, b = 0, 1
    labeling[a], labeling[b] = labeling[b], labeling[a]
    tampered = Certificate(cert.family, cert.params, cert.canonical_params, labeling)
    assert not verify_certificate(g, tampered)


def test_verify_certificate_rejects_partial_labeling():
    g = generate_gp(5, 2)
    cert = _accept(recognize_i_graph(g))
    labeling = dict(cert.labeling)
    del labeling[3]
    assert not verify_certificate(
        g, Certificate(cert.family, cert.params, cert.canonical_params, labeling)
    )
    # a name used twice leaves another one, here u0, without a vertex
    v = next(v for v, name in cert.labeling.items() if name == "u0")
    labeling = {**cert.labeling, v: cert.labeling[(v + 1) % g.n]}
    assert not verify_certificate(g, dataclasses.replace(cert, labeling=labeling))


def test_verify_certificate_rejects_malformed_params():
    g = generate_gp(5, 2)
    cert = _accept(recognize_i_graph(g))
    for family, params in (
        ("k-graph", (5, 1, 2)), ("i-graph", (5, 2)), ("i-graph", (5, 1, 3)),
        # parameters that are not ints
        ("i-graph", (10.0, 1, 2)), ("i-graph", (10, 1, 2.0)), ("i-graph", (5, True, 2)),
        ("i-graph", (5.0, 1, 2)), ("dp-graph", (10.0, 2)), ("folded-cube", (5.0,)),
    ):
        res = verify_certificate(g, dataclasses.replace(cert, family=family, params=params))
        assert res is False, (family, params)


def test_verify_certificate_order_and_size_guards():
    # the edgeless graph has no edge to replay
    g = build_graph(2, [])
    for params, labeling in (((1,), {0: "", 1: ""}), ((2,), {0: "0", 1: "1"})):
        assert not verify_certificate(g, Certificate("folded-cube", params, params, labeling))
    # every member edge is there, and one more edge or one more vertex
    pet = generate_gp(5, 2)
    cert = _accept(recognize_i_graph(pet))
    assert not verify_certificate(build_graph(10, [*pet.edges(), (0, 2)]), cert)
    from cyclereg.recognition import _replays

    identity = {v: v for v in range(pet.n)}
    assert _replays(pet, IParams(5, 1, 2), identity)
    assert not _replays(build_graph(11, list(pet.edges())), IParams(5, 1, 2), identity)


def test_verify_certificate_rejects_forged_canonical_params():
    # the CLI prints the canonical parameters, so they are checked too
    g = generate_gp(5, 2)
    cert = _accept(recognize_i_graph(g))
    assert verify_certificate(g, dataclasses.replace(cert, canonical_params=[5, 1, 2]))
    for canon in ((99, 7, 1), (5, 2, 1), None):
        assert not verify_certificate(g, dataclasses.replace(cert, canonical_params=canon))
    dp = generate_dp(DPParams(10, 3))
    cert = _accept(recognize_dp(dp))
    assert cert.params == cert.canonical_params == (10, 2)
    assert not verify_certificate(dp, dataclasses.replace(cert, params=(10, 3)))


def test_verify_certificate_rejects_extra_keys():
    g = generate_gp(5, 2)
    cert = _accept(recognize_i_graph(g))
    for extra in ({10: "u0"}, {-1: "w3"}, {"0": "u0"}):
        labeling = {**cert.labeling, **extra}
        assert not verify_certificate(g, dataclasses.replace(cert, labeling=labeling)), extra


def test_verify_certificate_malformed_names_are_false():
    g = generate_gp(5, 2)
    cert = _accept(recognize_i_graph(g))
    v = next(v for v, name in cert.labeling.items() if name == "u0")
    for name in (["u0"], {"u0"}, None, 0):
        labeling = {**cert.labeling, v: name}
        assert verify_certificate(g, dataclasses.replace(cert, labeling=labeling)) is False, name
    assert verify_certificate(g, dataclasses.replace(cert, labeling=None)) is False


def test_replays_checks_the_bijection_before_building_edges(monkeypatch):
    import cyclereg.recognition as recognition

    calls = []
    member_adjacency = recognition.member_adjacency
    monkeypatch.setattr(recognition, "member_adjacency", lambda p: calls.append(p) or member_adjacency(p))
    pet, p = generate_gp(5, 2), IParams(5, 1, 2)
    assert not recognition._replays(pet, p, {v: v // 2 for v in range(pet.n)})
    assert calls == []
    assert recognition._replays(pet, p, {v: v for v in range(pet.n)})
    assert calls == [p]


def test_replays_checks_every_member_edge():
    # every 2-switch of a member keeps the degrees and moves two member
    # edges, so the identity labeling replays only if some edge goes unchecked
    import cyclereg.recognition as recognition

    for p, g in ((IParams(5, 1, 2), generate_gp(5, 2)), (DPParams(5, 2), generate_dp(DPParams(5, 2))),
                 (FQParams(4), generate_folded_cube(FQParams(4)))):
        identity = {v: v for v in range(g.n)}
        assert recognition._replays(g, p, identity)
        edges = list(g.edges())
        switches = 0
        for i, (a, b) in enumerate(edges):
            for c, d in edges[i + 1:]:
                for x, y in ((c, d), (d, c)):
                    if len({a, b, x, y}) == 4 and not g.has_edge(a, x) and not g.has_edge(b, y):
                        rest = [e for e in edges if e not in ((a, b), (c, d))]
                        switched = build_graph(g.n, rest + [(a, x), (b, y)])
                        assert not recognition._replays(switched, p, identity), (p, a, b, x, y)
                        switches += 1
        assert switches > len(edges)


def test_replays_holds_no_edge_list():
    # the member's rows are walked as they are made: the replay of a
    # relabeled FQ_13 peaks below a quarter of what its edge list took
    import cyclereg.recognition as recognition

    p = FQParams(13)
    tracemalloc.start()
    try:
        order, edges = reference_member_edges(p)
        edge_list = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    perm = list(range(order))
    random.Random(13).shuffle(perm)
    g = build_graph(order, [(perm[a], perm[b]) for a, b in edges])
    phi = {perm[x]: x for x in range(order)}
    del edges
    peak = peak_memory(recognition._replays, g, p, phi)
    assert recognition._replays(g, p, phi)
    assert peak < edge_list / 4, (peak, edge_list)


def test_verify_certificate_huge_fq_dimension_builds_no_order():
    # 2^(n-1) is decided by exponent against |V|, never built
    pet = generate_gp(5, 2)
    cert = Certificate("folded-cube", (10**8,), (10**8,), {})
    tracemalloc.start()
    try:
        ok = verify_certificate(pet, cert)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok is False
    assert peak < 1 << 20, peak


def test_verify_certificate_fq5_fq6_own_and_swapped():
    graphs = {n: shuffled(generate_folded_cube(FQParams(n)), n) for n in (5, 6)}
    certs = {n: _accept(recognize_folded_cube(g)) for n, g in graphs.items()}
    for n, g in graphs.items():
        for c, cert in certs.items():
            assert verify_certificate(g, cert) is (n == c), (n, c)


def _renamed(cert, old, new):
    """The certificate with the vertex labeled `old` relabeled `new`."""
    labeling = {v: new if name == old else name for v, name in cert.labeling.items()}
    assert labeling != cert.labeling
    return dataclasses.replace(cert, labeling=labeling)


def test_verify_certificate_rejects_names_outside_the_family():
    # each new name reads as the old one under a lax parse (leading zero,
    # index mod n, extra or non-binary bit); only the exact name set counts
    g = generate_gp(5, 2)
    cert = _accept(recognize_i_graph(g))
    for old, new in (("u3", "u03"), ("u4", "u-1"), ("w0", "w5"), ("u0", "x0")):
        assert not verify_certificate(g, _renamed(cert, old, new)), new
    fq = generate_folded_cube(FQParams(4))
    cert = _accept(recognize_folded_cube(fq))
    assert verify_certificate(fq, cert)
    for old, new in (("000", "0000"), ("100", "10"), ("100", "200")):
        assert not verify_certificate(fq, _renamed(cert, old, new)), new


def test_auto_recognize_computes_one_partition(monkeypatch):
    import cyclereg.recognition as recognition

    sizes = []
    partition = recognition.octagon_partition

    def counted(g):
        sizes.append(g.n)
        return partition(g)

    monkeypatch.setattr(recognition, "octagon_partition", counted)
    # an even-n DP member fails as an I-graph first, then passes as DP
    assert _accept(recognize(shuffled(generate_dp(DPParams(8, 3)), 4))).family == "dp-graph"
    assert sizes == [32]
    sizes.clear()
    # a connected cubic non-member of order 4n reaches both families
    g = random_cubic(24, random.Random(8))
    assert len(connected_components(g)) == 1
    res = recognize(g)
    assert isinstance(res, Rejection) and sizes == [24]
    assert res == recognize_i_graph(g)  # the I rejection is the one reported


def test_auto_dispatch():
    assert _accept(recognize(shuffled(generate_gp(5, 2), 0))).family == "i-graph"
    # even-n DP-graphs are not GP-equivalent, so the i pass falls through
    assert _accept(recognize(shuffled(generate_dp(DPParams(6, 1)), 0))).family == "dp-graph"
    assert _accept(recognize(shuffled(generate_folded_cube(FQParams(6)), 0))).family == "folded-cube"
    # odd-n DP-graphs with coprime parameters are generalized Petersen
    # graphs, so auto reports the I-graph certificate first
    cert = _accept(recognize(shuffled(generate_dp(DPParams(7, 2)), 0)))
    assert cert.family == "i-graph" and cert.canonical_params == (14, 1, 4)
    # K_4 = FQ_3 takes the folded-cube path
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert _accept(recognize(k4)).family == "folded-cube"


def test_random_cubic_no_false_accepts():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.choice(range(6, 40, 2))
        g = random_cubic(n, rng)
        for res in (recognize_i_graph(g), recognize_dp(g) if n % 4 == 0 and n >= 12 else None):
            if isinstance(res, Certificate):
                # any accept must be genuine
                assert verify_certificate(g, res)


def _stored_members():
    return [IParams(*p) for p in CYCLE_REGULAR_I] + [DPParams(*p) for p in CYCLE_REGULAR_DP]


def test_find_isomorphism_agrees_with_networkx_on_stored_orders():
    nx = pytest.importorskip("networkx")
    same_order = {}
    for p in [*canonical_i_grid(13), *dp_grid(6)]:
        g = build_graph(*reference_member_edges(p))
        same_order.setdefault(g.n, []).append((p, g))
    pairs = 0
    for i, member in enumerate(_stored_members()):
        target = build_graph(*reference_member_edges(member))
        if target.n > 26:
            continue
        for p, g in same_order[target.n]:
            relabeled = shuffled(g, 100 + i)
            iso = find_isomorphism(relabeled, target)
            truth = nx.is_isomorphic(nx.Graph(list(relabeled.edges())),
                                     nx.Graph(list(target.edges())))
            assert (iso is not None) == truth, (member, p)
            if iso is not None:
                assert sorted(iso) == list(range(g.n))
                assert sorted(iso.values()) == list(range(g.n))
                assert all(target.has_edge(iso[a], iso[b]) for a, b in relabeled.edges())
            pairs += 1
    assert pairs == 39


def test_stored_members_accepted_under_relabeling():
    for member in _stored_members():
        g = build_graph(*reference_member_edges(member))
        for seed in range(3):
            relabeled = shuffled(g, seed)
            cert = _accept(recognize(relabeled))
            assert verify_certificate(relabeled, cert), (member, seed)


def test_find_isomorphism_distinguishes():
    assert find_isomorphism(generate_gp(10, 2), generate_gp(10, 3)) is None
    pet = generate_gp(5, 2)
    iso = find_isomorphism(shuffled(pet, 3), pet)
    assert iso is not None


def test_find_isomorphism_deeper_than_the_recursion_limit():
    g = generate_gp(500, 1)  # 1,000 vertices
    relabeled = shuffled(g, 5)
    iso = find_isomorphism(relabeled, g)
    assert iso is not None and sorted(iso.values()) == list(range(g.n))
    assert all(g.has_edge(iso[a], iso[b]) for a, b in relabeled.edges())


def test_traced_benchmark_names_resolve():
    # the benchmark's layer trace looks up each of these names before it
    # loads any input, so a renamed or deleted one fails every traced run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    if not path.exists():
        pytest.skip("no perfbench/tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod, names in tracing.TRACED.items():
        importlib.import_module(f"cyclereg.{mod}")
        for name in names:
            assert callable(getattr(sys.modules[f"cyclereg.{mod}"], name)), (mod, name)


def test_one_accept_step():
    # labelers only propose member-id labelings: `_certified` alone replays
    # them and `_certificate` alone makes certificates, and the only other
    # replay is `verify_certificate`'s, of certificates from outside.  A
    # second accept path has to change this test on purpose.
    import cyclereg.recognition as recognition

    sites = {"_replays": set(), "Certificate": set()}
    for top in ast.parse(Path(recognition.__file__).read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in sites:
                sites[node.func.id].add(getattr(top, "name", None))
    assert sites == {"_replays": {"_certified", "verify_certificate"}, "Certificate": {"_certificate"}}


def test_benchmark_checker_imports_resolve():
    # the benchmark's output checks import these names in the worker, so a
    # renamed or deleted one fails the check of every oracle_scans run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    if not path.exists():
        pytest.skip("no perfbench/checks.py")
    imports = [node for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cyclereg")]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
