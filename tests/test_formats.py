import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import outcome, peak_memory, reference_parse_edge_list
from cyclereg import DPParams, FQParams, build_graph, generate_dp, generate_folded_cube, generate_gp
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
    for line in ("A\u00e9", "A\ud800", "A>", "A\x7f"):  # "A?" is a valid line
        with pytest.raises(ParseError, match="invalid graph6 character"):
            decode_graph6(line)


def reference_decode_graph6(line: str):
    """graph6 read bit by bit over the whole upper triangle, as a quadratic
    reader had it."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise ParseError("invalid graph6 character")
    if not data:
        raise ParseError("empty graph6 line")
    if data[0] <= 62:
        n, idx = data[0], 1
    elif len(data) >= 4 and data[1] <= 62:
        n, idx = (data[1] << 12) | (data[2] << 6) | data[3], 4
    elif len(data) >= 8:
        n, idx = int("".join(f"{b:06b}" for b in data[2:8]), 2), 8
    else:
        raise ParseError("truncated graph6 header")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - idx != need:
        raise ParseError(f"expected {need} payload bytes, got {len(data) - idx}")
    pairs = [(row, col) for col in range(1, n) for row in range(col)]
    return build_graph(n, [e for pos, e in enumerate(pairs) if data[idx + pos // 6] >> (5 - pos % 6) & 1])


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=70), st.data())
def test_decode_graph6_equals_the_bitwise_reader(g, data):
    # encoded graphs with their padding bits set, characters just outside
    # the range, non-ASCII, a cut or a longer payload, and the prefix
    G = nx.empty_graph(g.n)
    G.add_edges_from(g.edges())
    line = encode_graph6(g)
    assert line == nx.to_graph6_bytes(G, header=False).decode().strip()
    padding = (6 - g.n * (g.n - 1) // 2 % 6) % 6
    if padding:
        line = line[:-1] + chr((ord(line[-1]) - 63 | data.draw(st.integers(1, (1 << padding) - 1))) + 63)
    cut = data.draw(st.integers(0, len(line)))
    tail = data.draw(st.text(alphabet=">?@~\x7f\x00\u00e9\ud800", max_size=3))
    line = data.draw(st.sampled_from([line, line[:cut] + tail + line[cut:], line[:cut], ">>graph6<<" + line]))
    assert outcome(decode_graph6, line) == outcome(reference_decode_graph6, line)


#: Tokens that int() reads in its own way, or not at all.
ODD_TOKENS = ["+5", "1_0", "-0", "007", "-1", "-3", str(2**63), str(2**63 + 1), str(-(2**64)),
              "x", "1.0", "0x1", "_1", "1__0", "\u0663", "#"]


@st.composite
def edge_list_texts(draw):
    """Edge lists, most of them valid: comments, blank lines, tabs, CRLF and
    other line breaks, odd integer spellings, wrong field counts,
    self-loops, repeats in either orientation and headers over the cap."""
    rare = st.sampled_from([False] * 9 + [True])  # true one time in ten
    n = draw(st.sampled_from([MAX_EDGE_LIST_VERTICES + 1, 2**64]) if draw(rare) else st.integers(0, 8))
    ids = st.integers(0, min(n, 9) - 1 if n else 0).map(str)
    if draw(st.booleans()) and n < 9:  # a simple graph, each edge in either orientation
        pairs = draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]),
                              unique_by=lambda e: frozenset(e)))
        body = [list(e) for e in pairs]
    else:  # self-loops, repeats, and now and then a bad id or a line that is not two integers
        token = st.one_of(ids, st.integers(-2, 10).map(str), st.sampled_from(ODD_TOKENS))
        near = st.integers(-1, min(n, 9)).map(str)  # one step out of range on either side
        pair = st.lists(st.one_of(*[ids] * 8, near), min_size=2, max_size=2)
        odd = st.lists(token, max_size=3)
        body = draw(st.lists(st.one_of(*[pair] * 12, odd), max_size=12))
    m = len(body) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    header = [str(n), str(m)]
    if draw(rare):
        header = draw(st.sampled_from([[str(n)], [str(n), str(m), "0"], [str(n), "-1"], ["x", str(m)]]))
    comment = st.sampled_from(["# a comment", "#", "  # 1 2", ""])
    lines = draw(st.lists(comment, max_size=2)) + [header] + body
    out = []
    pad = st.sampled_from(["", "", " ", "\t"])
    for fields in lines:
        if isinstance(fields, list):
            fields = draw(st.sampled_from([" ", "\t", "  ", " \t"])).join(fields)
        if draw(rare):
            out.append(draw(comment))
        out.append(draw(pad) + fields + draw(pad))
    ends = st.sampled_from(["\n"] * 6 + ["\r\n", "\r", "\x0c", "\u2028"])
    return "".join(line + draw(ends) for line in out)


@settings(max_examples=400, deadline=None)
@given(edge_list_texts())
def test_parse_edge_list_equals_the_two_pass_reader(text):
    # the same graph, or the same error class, message and line number
    assert outcome(parse_edge_list, text) == outcome(reference_parse_edge_list, text)


def test_parse_edge_list_reports_errors_in_input_order():
    # a bad edge early does not hide a later syntax error or a wrong count
    for text, message in [
        ("3 2\n0 5\n0 1 2\n", "line 3: expected two integers, got '0 1 2'"),
        ("3 3\n0 0\n0 1\n", "header promised 3 edges, found 2"),
        ("3 3\n0 1\n1 2\n2 1\n", "duplicate edge (1, 2)"),
        ("3 3\n1 0\n1 1\n2 7\n", "self-loop at vertex 1"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_edge_list(text)
        assert str(info.value) == message
        assert outcome(reference_parse_edge_list, text)[1] == message


def test_edge_list_header_allocates_per_vertex_pointers_only():
    # a vertex gets a neighbour list only once it has an edge
    assert parse_edge_list("200000 0\n").n == 200000
    peak = peak_memory(parse_edge_list, "200000 0\n")
    assert peak < 8e6, peak


def test_every_vertex_id_is_one_object():
    # ids above 256 are not cached by the interpreter; one object per id
    # lets lookups keyed by vertex ids hit on identity
    gp = generate_gp(300, 2)
    dp, fq = generate_dp(DPParams(70, 3)), generate_folded_cube(FQParams(10))
    assert min(gp.n, dp.n, fq.n) > 256
    for g in (dp, fq):
        assert parse_edge_list(emit_edge_list(g)) == g
    for g, h in [(gp, gp), (gp, parse_edge_list(emit_edge_list(gp))),
                 (gp, decode_graph6(encode_graph6(gp))), (dp, dp), (fq, fq)]:
        assert h == g
        first: dict[int, int] = {}
        for nbrs in h.adj:
            for v in nbrs:
                assert first.setdefault(v, id(v)) == id(v)
        assert len(first) == g.n
