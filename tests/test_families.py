from math import gcd

import pytest

from cyclereg import (
    DPParams,
    FQParams,
    IParams,
    ParamOutOfRangeError,
    build_graph,
    canonical_i_params,
    connected_components,
    dp_even_twin,
    find_isomorphism,
    generate_dp,
    generate_folded_cube,
    generate_gp,
    generate_hypercube,
    generate_i_graph,
    is_regular,
)

from conftest import count_cycles, dp_twin_map, reference_cube_edges, reference_member_edges


# edge roles read off the id convention: u_i = i, w_i = n + i (I and DP),
# x_i = 2n + i, y_i = 3n + i (DP); edges come as (a, b) with a < b


def _i_spokes(g, n):
    return [(a, b) for a, b in g.edges() if b - a == n]


def _i_outer(g, n):
    return [(a, b) for a, b in g.edges() if b < n]


def _dp_inner(g, n):
    return [(a, b) for a, b in g.edges() if n <= a < 2 * n and b >= 3 * n]


def _assert_simple_rows(rows):
    # sorted, loop-free and symmetric, with no repeats: a simple graph
    assert all(row == tuple(sorted(row)) for row in rows)
    arcs = {(a, b) for a, row in enumerate(rows) for b in row if a != b}
    assert len(arcs) == sum(map(len, rows))
    assert arcs == {(b, a) for a, b in arcs}


def test_generators_equal_the_reference_edge_rule():
    # the neighbour rule against the edge rule written apart from it, on
    # every I(n,j,k) with j <= k and n <= 40 (disconnected members too),
    # every DP(n,k) with n <= 60, FQ_n with n <= 12 and Q_n with n <= 10
    members = [
        (generate_i_graph, IParams(n, j, k))
        for n in range(3, 41) for k in range(1, (n + 1) // 2) for j in range(1, k + 1)
    ]
    members += [(generate_dp, DPParams(n, k)) for n in range(3, 61) for k in range(1, (n + 1) // 2)]
    members += [(generate_folded_cube, FQParams(n)) for n in range(1, 13)]
    assert len(members) == 3542
    for generate, p in members:
        g = generate(p)
        assert g == build_graph(*reference_member_edges(p)), p
        _assert_simple_rows(g.adj)
    for n in range(11):
        q = generate_hypercube(n)
        assert q == build_graph(1 << n, reference_cube_edges(n)), n
        _assert_simple_rows(q.adj)


def test_triangular_prism():
    g = generate_i_graph(IParams(3, 1, 1))
    assert g.n == 6 and g.m == 9 and is_regular(g, 3)


def test_i_12_2_3_connected_cubic():
    g = generate_i_graph(IParams(12, 2, 3))
    assert g.n == 24 and is_regular(g, 3)
    assert len(connected_components(g)) == 1


def test_i_graph_disconnected_copies():
    g = generate_i_graph(IParams(6, 2, 2))
    comps = connected_components(g)
    assert len(comps) == 2
    prism = generate_i_graph(IParams(3, 1, 1))
    from cyclereg import induced_subgraph

    for comp in comps:
        sub, _ = induced_subgraph(g, comp)
        assert find_isomorphism(sub, prism) is not None


def test_gp_petersen_and_cube():
    pet = generate_gp(5, 2)
    assert (pet.n, pet.m) == (10, 15)
    cube = generate_gp(4, 1)
    q3 = generate_hypercube(3)
    assert find_isomorphism(cube, q3) is not None


def test_gp_f048a_order():
    g = generate_gp(24, 5)
    assert g.n == 48 and is_regular(g, 3)


@pytest.mark.parametrize("n,j,k", [(12, 2, 3), (15, 3, 4), (10, 1, 3)])
def test_i_graph_orbit_structure(n, j, k):
    g = generate_i_graph(IParams(n, j, k))
    assert g.m == 3 * n
    spokes = _i_spokes(g, n)
    assert len(spokes) == n
    assert len({v for e in spokes for v in e}) == 2 * n  # perfect matching
    # outer edges induce gcd(n,j) cycles of length n/gcd(n,j)
    outer = _i_outer(g, n)
    from cyclereg import build_graph, induced_subgraph

    deg = {}
    for a, b in outer:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    assert all(d == 2 for d in deg.values())
    sub = build_graph(g.n, outer)
    comps = [c for c in connected_components(sub) if len(c) > 1]
    assert len(comps) == gcd(n, j)
    assert all(len(c) == n // gcd(n, j) for c in comps)


def test_i_params_bounds():
    with pytest.raises(ParamOutOfRangeError):
        IParams(8, 1, 4)  # k = n/2 would double edges
    with pytest.raises(ParamOutOfRangeError):
        IParams(2, 1, 1)


def test_dp_generator_shape():
    g = generate_dp(DPParams(6, 1))
    assert (g.n, g.m) == (24, 36) and is_regular(g, 3)
    inner = _dp_inner(g, 6)
    assert len(inner) == 12


@pytest.mark.parametrize(
    "n,k",
    [(6, 2), (12, 3), (9, 3), (10, 2), (8, 2)],
)
def test_dp_inner_orbit_structure(n, k):
    from cyclereg import build_graph

    g = generate_dp(DPParams(n, k))
    inner = _dp_inner(g, n)
    sub = build_graph(g.n, inner)
    comps = [c for c in connected_components(sub) if len(c) > 1]
    d = gcd(n, k)
    if (n // d) % 2 == 0 and d > 1:
        assert len(comps) == 2 * d
        assert all(len(c) == n // d for c in comps)
    else:
        assert len(comps) == d
        assert all(len(c) == 2 * n // d for c in comps)


def test_dp_bounds():
    with pytest.raises(ParamOutOfRangeError):
        DPParams(3, 2)


def test_dp_5_2_is_dodecahedron():
    assert find_isomorphism(generate_dp(DPParams(5, 2)), generate_gp(10, 2)) is not None


def test_folded_cube_small_cases():
    k1 = generate_folded_cube(FQParams(1))
    assert (k1.n, k1.m) == (1, 0)
    k2 = generate_folded_cube(FQParams(2))
    assert (k2.n, k2.m) == (2, 1)
    k4 = generate_folded_cube(FQParams(3))
    assert (k4.n, k4.m) == (4, 6)  # K_4


def test_folded_cube_fq4_is_k44():
    g = generate_folded_cube(FQParams(4))
    assert (g.n, g.m) == (8, 16)
    assert is_regular(g, 4)
    assert all(count_cycles(g, m) == 0 for m in (3, 5, 7))  # no odd cycle
    # complete bipartite: parity classes of size 4, all cross pairs adjacent
    sides = [[v for v in range(8) if bin(v).count("1") % 2 == p] for p in (0, 1)]
    assert all(g.has_edge(a, b) for a in sides[0] for b in sides[1])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_folded_cube_counts_and_role_incidence(n):
    g = generate_folded_cube(FQParams(n))
    assert g.n == 2 ** (n - 1)
    assert g.m == n * 2 ** (n - 2)
    assert is_regular(g, n)
    # each vertex meets exactly one edge of each role: its dimension a ^ b,
    # the all-ones mask for the diagonal
    incident = {v: set() for v in range(g.n)}
    for e in g.edges():
        role = e[0] ^ e[1]
        for v in e:
            assert role not in incident[v]
            incident[v].add(role)
    assert all(len(s) == n for s in incident.values())


def test_fq_param_bounds():
    with pytest.raises(ParamOutOfRangeError):
        FQParams(0)


def test_canonical_examples():
    assert canonical_i_params(IParams(5, 1, 2)) == IParams(5, 1, 2)
    assert canonical_i_params(IParams(7, 1, 3)) == IParams(7, 1, 2)
    assert canonical_i_params(IParams(13, 5, 1)) == IParams(13, 1, 5)


def test_canonical_idempotent_and_constant_on_classes():
    # brute-force ground truth: params are equivalent iff the generated
    # graphs are isomorphic
    for n in range(3, 13):
        classes: dict[tuple, list[IParams]] = {}
        params = [
            IParams(n, j, k)
            for j in range(1, (n - 1) // 2 + 1)
            for k in range(j, (n - 1) // 2 + 1)
            if gcd(gcd(n, j), k) == 1
        ]
        for p in params:
            c = canonical_i_params(p)
            assert canonical_i_params(c) == c
            classes.setdefault((c.n, c.j, c.k), []).append(p)
        for canon, members in classes.items():
            model = generate_i_graph(IParams(*canon))
            for p in members:
                assert find_isomorphism(generate_i_graph(p), model) is not None
        # distinct canonical forms must be non-isomorphic
        reps = sorted(classes)
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                a = generate_i_graph(IParams(*reps[i]))
                b = generate_i_graph(IParams(*reps[j]))
                assert find_isomorphism(a, b) is None


def test_dp_even_twin():
    assert dp_even_twin(DPParams(10, 2)) == DPParams(10, 3)
    assert dp_even_twin(DPParams(10, 3)) == DPParams(10, 2)
    assert dp_even_twin(DPParams(5, 2)) is None


def test_dp_twin_map_examples():
    m = dp_twin_map(DPParams(10, 2))
    # x_i -> x_{i+n/2}, u_i fixed; ids: x_i = 2n + i
    assert m[20 + 0] == 20 + 5
    assert m[7] == 7


@pytest.mark.parametrize("n,k", [(6, 1), (10, 2), (10, 3), (12, 5), (14, 3)])
def test_dp_twin_map_is_isomorphism(n, k):
    src = generate_dp(DPParams(n, k))
    dst = generate_dp(DPParams(n, n // 2 - k))
    m = dp_twin_map(DPParams(n, k))
    for a, b in src.edges():
        assert dst.has_edge(m[a], m[b])


def dp_gp_equivalent(p: DPParams) -> tuple[int, int] | None:
    """GP parameters (2n, k') isomorphic to DP(n,k), when they exist.

    Requires odd n and gcd(n,k) = 1; k' is the unique even solution of
    k*k' = +-1 (mod n) in (0, n).
    """
    n, k = p.n, p.k
    if n % 2 == 0 or gcd(n, k) != 1:
        return None
    inv = pow(k, -1, n)
    kp = inv if inv % 2 == 0 else n - inv
    return (2 * n, kp)


def test_dp_gp_equivalent():
    assert dp_gp_equivalent(DPParams(5, 2)) == (10, 2)
    assert dp_gp_equivalent(DPParams(7, 2)) == (14, 4)
    assert dp_gp_equivalent(DPParams(6, 1)) is None
    assert dp_gp_equivalent(DPParams(9, 3)) is None  # gcd > 1


@pytest.mark.parametrize("n,k", [(5, 2), (7, 2), (7, 3), (9, 2)])
def test_dp_gp_equivalent_graphs_isomorphic(n, k):
    np, kp = dp_gp_equivalent(DPParams(n, k))
    assert kp % 2 == 0 and (k * kp) % n in (1, n - 1)
    dp = generate_dp(DPParams(n, k))
    gp = generate_gp(np, kp)
    assert find_isomorphism(dp, gp) is not None
