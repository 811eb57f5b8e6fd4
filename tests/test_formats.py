import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclereg import build_graph, generate_gp
from cyclereg import formats
from cyclereg.formats import (
    MAX_EDGE_LIST_VERTICES,
    ParseError,
    decode_graph6,
    emit_edge_list,
    encode_graph6,
    parse_edge_list,
)


@st.composite
def graphs(draw, max_n=24):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph(n, edges)


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_edge_list_round_trip_identity(g):
    text = emit_edge_list(g)
    assert parse_edge_list(text) == g
    assert emit_edge_list(parse_edge_list(text)) == text


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_graph6_round_trip(g):
    assert decode_graph6(encode_graph6(g)) == g


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=16))
def test_graph6_agrees_with_networkx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    ref = nx.to_graph6_bytes(G, header=False).decode().strip()
    assert encode_graph6(g) == ref
    # and decoding networkx output gives the same graph back
    assert decode_graph6(ref) == g


def test_graph6_large_n_header():
    g = build_graph(100, [(0, 99), (1, 2)])
    assert decode_graph6(encode_graph6(g)) == g


def test_graph6_header_prefix_accepted():
    g = generate_gp(5, 2)
    assert decode_graph6(">>graph6<<" + encode_graph6(g)) == g


def test_graph6_and_edge_list_agree_on_fixture():
    g = generate_gp(5, 2)
    assert parse_edge_list(emit_edge_list(g)) == decode_graph6(encode_graph6(g))


def test_edge_list_comments_and_errors():
    text = "# a petersen-free zone\n3 2\n0 1\n1 2\n"
    g = parse_edge_list(text)
    assert g.n == 3 and g.m == 2

    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("3 1\nnope nope\n")
    with pytest.raises(ParseError, match="header"):
        parse_edge_list("# nothing\n")
    with pytest.raises(ParseError, match="promised"):
        parse_edge_list("3 2\n0 1\n")


def test_edge_list_header_vertex_cap(monkeypatch):
    # the header is refused before any per-vertex allocation
    monkeypatch.setattr(formats, "build_graph", lambda *a: pytest.fail("build_graph was called"))
    assert MAX_EDGE_LIST_VERTICES >= 10 * 128_000  # room above I(64000,1,2)
    for text in ("1000000000 0\n", f"{MAX_EDGE_LIST_VERTICES + 1} 0\n"):
        with pytest.raises(ParseError, match="header asks for"):
            parse_edge_list(text)


def test_graph6_errors():
    with pytest.raises(ParseError):
        decode_graph6("")
    with pytest.raises(ParseError):
        decode_graph6("I" + "~" * 2)  # wrong payload length
