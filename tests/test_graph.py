import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclereg import (
    DuplicateEdgeError,
    FQParams,
    IParams,
    SelfLoopError,
    VertexOutOfRangeError,
    bfs,
    build_graph,
    connected_components,
    generate_folded_cube,
    generate_gp,
    generate_i_graph,
    induced_subgraph,
    is_regular,
)

from conftest import count_cycles, outcome, reference_build_graph

PETERSEN = generate_gp(5, 2)


def _ball(g, edge, radius):
    """Induced subgraph on the vertices within `radius` of either endpoint."""
    u, v = edge
    return induced_subgraph(g, bfs(g.adj, u, radius).keys() | bfs(g.adj, v, radius).keys())


def test_build_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.m == 3
    assert g.adj == ((1, 2), (0, 2), (0, 1))


def test_build_rejects_duplicate_in_either_orientation():
    with pytest.raises(DuplicateEdgeError, match=r"^duplicate edge \(0, 1\)$"):
        build_graph(2, [(0, 1), (1, 0)])
    with pytest.raises(DuplicateEdgeError, match=r"^duplicate edge \(1, 3\)$"):
        build_graph(4, [(3, 1), (0, 2), (1, 3)])


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoopError, match=r"^self-loop at vertex 0$"):
        build_graph(2, [(0, 0)])


def test_build_rejects_out_of_range_vertex():
    with pytest.raises(VertexOutOfRangeError, match=r"^edge \(0,4\) outside 0..3$"):
        build_graph(4, [(0, 4)])


def test_is_regular():
    assert is_regular(PETERSEN, 3)
    assert not is_regular(build_graph(3, [(0, 1), (1, 2), (2, 0)]), 3)
    assert is_regular(build_graph(0, []), 7)  # vacuous


def test_components_of_disconnected_i_graph():
    g = generate_i_graph(IParams(6, 2, 2))  # gcd = 2: two triangular prisms
    comps = connected_components(g)
    assert len(comps) == 2
    assert all(len(c) == 6 for c in comps)


def test_components_trivia():
    assert len(connected_components(PETERSEN)) == 1
    two_triangles = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert [len(c) for c in connected_components(two_triangles)] == [3, 3]


def test_bfs_path_and_unreachable():
    path = build_graph(3, [(0, 1), (1, 2)])
    assert bfs(path.adj, 0) == {0: 0, 1: 1, 2: 2}
    two_edges = build_graph(4, [(0, 1), (2, 3)])
    assert bfs(two_edges.adj, 0) == {0: 0, 1: 1}  # 2 and 3 are unreachable


def test_bfs_radius_and_visiting_order():
    path = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert bfs(path.adj, 2, 1) == {2: 0, 1: 1, 3: 1}
    assert bfs(path.adj, 0, 0) == {0: 0}
    d = bfs(PETERSEN.adj, 0)  # keys in the order the search reaches them
    assert list(d)[:4] == [0, *PETERSEN.adj[0]]
    assert list(d.values()) == sorted(d.values())


def test_petersen_eccentricity_two():
    # brute force over all sources
    for v in range(PETERSEN.n):
        d = bfs(PETERSEN.adj, v)
        assert len(d) == 10 and max(d.values()) == 2


def test_bipartite():
    # FQ_n is bipartite exactly for even n: FQ_5 has 5-cycles, FQ_4 = K_4,4
    # has no odd cycle of any length it can hold
    assert count_cycles(generate_folded_cube(FQParams(5)), 5) > 0
    fq4 = generate_folded_cube(FQParams(4))
    assert all(count_cycles(fq4, m) == 0 for m in (3, 5, 7))


@pytest.mark.parametrize("gen", [PETERSEN, generate_gp(12, 5), generate_gp(26, 5)])
def test_cubic_ball_radius_four_order_bound(gen):
    # what keeps the per-edge 8-cycle count constant-time: the radius-4
    # ball around an edge of a cubic graph has at most 62 vertices
    for e in list(gen.edges())[:6]:
        sub, _ = _ball(gen, e, 4)
        assert sub.n <= 62


@st.composite
def edge_sets(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return n, edges


@settings(max_examples=60, deadline=None)
@given(edge_sets(), st.randoms(use_true_random=False))
def test_adjacency_symmetry_and_sortedness(ne, rnd):
    n, edges = ne
    g = build_graph(n, edges)
    for u in range(n):
        assert list(g.adj[u]) == sorted(g.adj[u])
        for v in g.adj[u]:
            assert u in g.adj[v]
    # an induced subgraph relabels g's rows; the reference rebuilds them
    # from the kept edges, given in any order and with repeats
    keep = sorted(rnd.sample(range(n), rnd.randint(0, n)))
    remap = {old: new for new, old in enumerate(keep)}
    kept = [(remap[u], remap[v]) for u, v in edges if u in remap and v in remap]
    reference = build_graph(len(keep), kept)
    assert induced_subgraph(g, rnd.sample(keep, len(keep)) + keep[:1]) == (reference, keep)



@st.composite
def edge_sequences_with_bad_edges(draw):
    """A simple edge list with one to three bad edges put in anywhere: a
    self-loop, a repeat in either orientation, or an id out of range."""
    n, edges = draw(edge_sets())
    edges = [(b, a) if draw(st.booleans()) else (a, b) for a, b in edges]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["loop", "repeat", "range"]))
        if kind == "repeat" and edges:
            a, b = draw(st.sampled_from(edges))
            bad = draw(st.sampled_from([(a, b), (b, a)]))
        elif kind == "range":
            bad = draw(st.tuples(st.sampled_from([-1, n, n + 5, 2**64]), st.integers(-1, n)))
            bad = draw(st.sampled_from([bad, bad[::-1]]))
        else:
            v = draw(st.integers(0, n - 1))
            bad = (v, v)
        edges.insert(draw(st.integers(0, len(edges))), bad)
    return n, edges


@settings(max_examples=300, deadline=None)
@given(edge_sequences_with_bad_edges())
def test_build_graph_names_the_first_bad_edge_like_the_two_pass_reader(ne):
    expected = outcome(reference_build_graph, *ne)
    assert isinstance(expected, tuple)  # every sequence holds a bad edge
    assert outcome(build_graph, *ne) == expected


@settings(max_examples=100, deadline=None)
@given(edge_sets())
def test_build_graph_equals_the_two_pass_reader(ne):
    assert build_graph(*ne) == reference_build_graph(*ne)


@settings(max_examples=40, deadline=None)
@given(edge_sets(), st.randoms(use_true_random=False))
def test_bfs_triangle_inequality(ne, rnd):
    n, edges = ne
    g = build_graph(n, edges)
    dists = [bfs(g.adj, s) for s in range(n)]
    inf = float("inf")
    for _ in range(20):
        a, b, c = (rnd.randrange(n) for _ in range(3))
        assert dists[a].get(b, inf) <= dists[a].get(c, inf) + dists[c].get(b, inf)


def test_octagon_locality_ball_equals_whole_graph():
    # the 8-cycle count through an edge is determined inside the radius-4 ball
    from cyclereg import octagon_value

    for g in (PETERSEN, generate_gp(12, 5), generate_i_graph(IParams(11, 2, 4))):
        for e in list(g.edges())[:8]:
            sub, old = _ball(g, e, 4)
            remap = {o: i for i, o in enumerate(old)}
            inner = octagon_value(sub, (remap[e[0]], remap[e[1]]))
            assert inner == octagon_value(g, e)
