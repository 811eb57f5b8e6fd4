import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import outcome, peak_memory, shuffled
from cyclereg import FQParams, cli, families, generate_folded_cube, generate_gp
from cyclereg.cli import (
    MAX_ANALYZE_M,
    MAX_CUBIC_TABLE_N,
    MAX_FQ_TABLE_N,
    MAX_GRAPH6_VERTICES,
    _first_line,
    _parse_range,
    _read_graph,
    _too_large,
    main,
)
from cyclereg.formats import (
    MAX_EDGE_LIST_VERTICES,
    ParseError,
    decode_graph6,
    emit_edge_list,
    encode_graph6,
    parse_edge_list,
)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_generate_petersen_graph6(capsys):
    code, out, _ = run(capsys, "generate", "gp", "5", "2", "--format", "graph6")
    assert code == 0
    assert decode_graph6(out.strip()) == generate_gp(5, 2)


def test_generate_fq4_edge_list(capsys):
    code, out, _ = run(capsys, "generate", "fq", "4")
    assert code == 0
    g = parse_edge_list(out)
    assert (g.n, g.m) == (8, 16)


def test_generate_bad_params_exit_2(capsys):
    code, _, err = run(capsys, "generate", "dp", "3", "2")
    assert code == 2
    assert "k must satisfy" in err


def test_generate_wrong_arity_exit_2(capsys):
    code, _, err = run(capsys, "generate", "i", "5", "1")
    assert code == 2


def test_recognize_petersen(tmp_path, capsys):
    path = tmp_path / "pet.txt"
    run(capsys, "generate", "gp", "5", "2", "--out", str(path))
    code, out, _ = run(capsys, "recognize", str(path))
    assert code == 0
    assert "I-graph I(5,1,2)" in out


def test_recognize_dp_canonical(tmp_path, capsys):
    path = tmp_path / "dp.g6"
    run(capsys, "generate", "dp", "10", "3", "--format", "graph6", "--out", str(path))
    code, out, _ = run(capsys, "recognize", str(path), "--family", "dp")
    assert code == 0 and "DP(10,2)" in out


def test_recognize_certificate_flag(tmp_path, capsys):
    path = tmp_path / "pet.txt"
    run(capsys, "generate", "gp", "5", "2", "--out", str(path))
    code, out, _ = run(capsys, "recognize", str(path), "--certificate")
    assert code == 0
    assert len(out.strip().splitlines()) == 11  # headline + 10 labels


def test_recognize_reject_exit_1(tmp_path, capsys):
    path = tmp_path / "c6.txt"
    path.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
    code, out, _ = run(capsys, "recognize", str(path))
    assert code == 1
    assert out.startswith("reject")


def test_recognize_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3 9\n0 1\n")
    code, _, err = run(capsys, "recognize", str(path))
    assert code == 2 and "parse error" in err


@pytest.mark.parametrize("command", ["recognize", "analyze"])
def test_non_utf8_input_exit_2(tmp_path, capsys, command):
    # an executable's header, and a UTF-16 byte-order mark
    for data in (b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)), b"\xff\xfe5 0\n"):
        path = tmp_path / "binary"
        path.write_bytes(data)
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "parse error" in err


def test_read_graph_sniffs_without_holding_the_lines(tmp_path):
    # the sniffed lines are gone before the parse: the peak is the parse's
    # own, plus the text read from the file
    text = emit_edge_list(shuffled(generate_folded_cube(FQParams(12)), 1))
    path = tmp_path / "fq12.txt"
    path.write_text(text)
    assert _read_graph(str(path)) == parse_edge_list(text)
    assert peak_memory(_read_graph, str(path)) < 1.2 * peak_memory(parse_edge_list, text)


def _splitlines_sniff(text):
    # the sniff as it was: every line of the input, then the first one that
    # is neither blank nor a comment
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            return line
    raise ParseError("empty input")


@pytest.mark.parametrize("prefix", [
    "", "\n\n", "  \t\n", "# comment\n", "\r\n", "# a\r\n\r\n", "\x0c", "\u2028",
    "\n# 1 2\x0c \u2028\r\n\x1c\x85",
])
def test_read_graph_sniffs_the_first_line_like_splitlines(tmp_path, prefix):
    # line boundaries other than "\n" and "\r" pass through the file reader,
    # so the sniff must cut lines where str.splitlines does
    pet = generate_gp(5, 2)
    for body, expected in ((emit_edge_list(pet), "10 15"), (encode_graph6(pet) + "\n", encode_graph6(pet))):
        text = prefix + body
        assert _first_line(text) == _splitlines_sniff(text) == expected
        path = tmp_path / "g.txt"
        path.write_text(text, newline="")
        assert _read_graph(str(path)) == pet


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029#3C~", max_size=12))
def test_first_line_cuts_lines_like_splitlines(text):
    assert outcome(_first_line, text) == outcome(_splitlines_sniff, text)


def test_sniff_holds_no_lines():
    # the sniff scans forward to the header: on an FQ_15-sized text, where
    # splitting every line took about 8 MB, it holds under 4 kB
    text = emit_edge_list(generate_folded_cube(FQParams(15)))
    assert len(text) > 1e6
    assert _first_line(text) == "16384 122880"
    assert peak_memory(_first_line, text) < 4096


def test_analyze_petersen(tmp_path, capsys):
    path = tmp_path / "pet.txt"
    run(capsys, "generate", "gp", "5", "2", "--out", str(path))
    code, out, _ = run(capsys, "analyze", str(path), "--l", "1", "--m", "8")
    assert code == 0 and "regular, lambda=8" in out


def test_analyze_fq5_two_paths(tmp_path, capsys):
    path = tmp_path / "fq5.txt"
    run(capsys, "generate", "fq", "5", "--out", str(path))
    code, out, _ = run(capsys, "analyze", str(path), "--l", "2", "--m", "6")
    assert code == 0 and "regular, lambda=12" in out


def test_analyze_witness(tmp_path, capsys):
    path = tmp_path / "g61.txt"
    run(capsys, "generate", "gp", "6", "1", "--out", str(path))
    code, out, _ = run(capsys, "analyze", str(path), "--l", "1", "--m", "8")
    assert code == 0 and "not cycle-regular" in out and "path" in out


def test_analyze_partition(tmp_path, capsys):
    path = tmp_path / "pet.txt"
    run(capsys, "generate", "gp", "5", "2", "--out", str(path))
    code, out, _ = run(capsys, "analyze", str(path), "--partition")
    assert code == 0 and "sigma=8: 15 edges" in out


def test_verify_tables_small(capsys):
    code, out, _ = run(capsys, "verify-tables", "--table", "5", "--max-n", "7")
    assert code == 0
    assert "3 found, 3 expected" in out


def test_verify_tables_reports_lambda_discrepancies(capsys):
    # the published lambda values for G(8,3) and G(12,5) disagree with the
    # oracle; the tool reports this and exits nonzero
    code, out, _ = run(capsys, "verify-tables", "--table", "5", "--max-n", "13")
    assert code == 1
    assert "DISCREPANCY at I(8, 1, 3)" in out
    assert "DISCREPANCY at I(12, 1, 5)" in out


def test_verify_tables_dp(capsys):
    code, out, _ = run(capsys, "verify-tables", "--table", "8", "--max-n", "12")
    assert code == 0
    assert "3 found, 3 expected" in out


def test_verify_tables_fq4(capsys):
    code, out, _ = run(capsys, "verify-tables", "--table", "fq4", "--max-n", "6")
    assert code == 0
    assert "FQ_4 [1,lambda,4]: published=9 oracle=9 ok" in out


def test_verify_tables_fq26_reports_refuted_values(capsys):
    code, out, _ = run(capsys, "verify-tables", "--table", "fq26", "--max-n", "6")
    assert code == 1
    assert "FQ_4 [2,lambda,6]: published=None oracle=12 DISCREPANCY" in out
    assert "FQ_6 [2,lambda,6]: published=2 oracle=40 DISCREPANCY" in out


def test_verify_tables_fq8conj_reports_verdicts(capsys):
    # n = 4 confirms the conjectured value, n = 5 refutes the cubic formula
    code, out, _ = run(capsys, "verify-tables", "--table", "fq8conj", "--max-n", "5")
    assert code == 1
    assert "FQ_4 [1,lambda,8]: conjectured=36 oracle=36 -> confirmed" in out
    assert "FQ_5 [1,lambda,8]: conjectured=996 oracle=672 -> refuted" in out


@pytest.mark.parametrize("table", ["fq4", "fq6", "fq26", "fq8conj"])
@pytest.mark.parametrize("max_n", [["--max-n", str(MAX_FQ_TABLE_N + 1)], []])  # []: the default
def test_verify_tables_fq_above_cap_exit_2(monkeypatch, capsys, table, max_n):
    for name in ("check_fq_formula", "check_fq_eight_cycle_conjecture"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **k: pytest.fail(f"{name} was called"))
    code, out, err = run(capsys, "verify-tables", "--table", table, *max_n)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("verify-tables error:")


@pytest.mark.parametrize("table", ["5", "8"])
@pytest.mark.parametrize("max_n", [MAX_CUBIC_TABLE_N + 1, 100000])
def test_verify_tables_cubic_above_cap_exit_2(monkeypatch, capsys, table, max_n):
    for name in ("scan_cycle_regular_i", "scan_cycle_regular_dp"):
        monkeypatch.setattr(cli, name, lambda *a, name=name: pytest.fail(f"{name} was called"))
    code, out, err = run(capsys, "verify-tables", "--table", table, "--max-n", str(max_n))
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("verify-tables error:")


@pytest.mark.parametrize("table,name", [("5", "scan_cycle_regular_i"), ("8", "scan_cycle_regular_dp")])
def test_verify_tables_cubic_at_cap_runs(monkeypatch, capsys, table, name):
    sizes = []
    monkeypatch.setattr(cli, name, lambda max_n: sizes.append(max_n) or {})
    code, out, err = run(capsys, "verify-tables", "--table", table, "--max-n", str(MAX_CUBIC_TABLE_N))
    assert code == 1 and err == "" and sizes == [MAX_CUBIC_TABLE_N]
    assert "0 found" in out


@pytest.mark.parametrize("table,first", [("fq4", 3), ("fq6", 3), ("fq26", 3), ("fq8conj", 4)])
def test_verify_tables_fq_at_cap_runs(monkeypatch, capsys, table, first):
    dims = []
    monkeypatch.setattr(cli, "check_fq_formula", lambda l, m, d, published: dims.append(d) or [])
    monkeypatch.setattr(cli, "check_fq_eight_cycle_conjecture", lambda d: dims.append(d) or [])
    code, out, err = run(capsys, "verify-tables", "--table", table, "--max-n", str(MAX_FQ_TABLE_N))
    assert (code, out, err) == (0, "", "")
    assert dims == [list(range(first, MAX_FQ_TABLE_N + 1))]


def test_bench_single_size_rows(capsys):
    code, out, _ = run(capsys, "bench", "--family", "i",
                       "--n-range", "200..200", "--repeats", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,edges,elapsed_ns,ns_per_edge"
    assert len(lines) == 1 + 3  # one row per repeat


@pytest.mark.parametrize("argv", [
    ["generate", "q", "40"],
    ["generate", "fq", "41"],
    ["generate", "dp", str(MAX_EDGE_LIST_VERTICES // 4 + 1), "1"],
    ["bench", "--family", "fq", "--n-range", "30..30"],
    ["bench", "--family", "i", "--n-range", "1..100000000"],
])
def test_generate_and_bench_refuse_members_over_the_cap(monkeypatch, capsys, argv):
    # refused from the parameters, before any edge or adjacency list is made
    for name in ("member_adjacency", "_cube_rows", "LabeledGraph"):
        monkeypatch.setattr(families, name, lambda *a, name=name: pytest.fail(f"{name} was called"))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert f"more than {MAX_EDGE_LIST_VERTICES} vertices" in err


@pytest.mark.parametrize("family,at_cap", [
    ("fq", [13]), ("q", [12]), ("i", [MAX_GRAPH6_VERTICES // 2, 1, 2]),
    ("gp", [MAX_GRAPH6_VERTICES // 2, 2]), ("dp", [MAX_GRAPH6_VERTICES // 4, 3]),
])
def test_generate_graph6_refuses_members_over_its_cap(monkeypatch, capsys, family, at_cap):
    # graph6 holds one bit per vertex pair, so its cap is far below the
    # edge-list cap; one step above it is refused from the parameters
    assert MAX_GRAPH6_VERTICES == 4096 and _too_large(family, at_cap[0]) is None
    assert _too_large(family, at_cap[0], MAX_GRAPH6_VERTICES) is None
    for name in ("member_adjacency", "_cube_rows", "LabeledGraph"):
        monkeypatch.setattr(families, name, lambda *a, name=name: pytest.fail(f"{name} was called"))
    over = [str(at_cap[0] + 1), *map(str, at_cap[1:])]
    code, out, err = run(capsys, "generate", family, *over, "--format", "graph6")
    assert code == 2 and out == ""
    assert err.splitlines() == [f"parameter error: family {family!r} with n = {over[0]} "
                                f"has more than {MAX_GRAPH6_VERTICES} vertices for graph6"]


def test_vertex_cap_boundary():
    # FQ_n has 2^(n-1) vertices, Q_n 2^n, I 2n and DP 4n
    width = MAX_EDGE_LIST_VERTICES.bit_length() - 1
    assert MAX_EDGE_LIST_VERTICES == 1 << width
    for family, n in (("fq", width + 1), ("q", width), ("i", MAX_EDGE_LIST_VERTICES // 2),
                      ("gp", MAX_EDGE_LIST_VERTICES // 2), ("dp", MAX_EDGE_LIST_VERTICES // 4)):
        assert _too_large(family, n) is None
        assert _too_large(family, n + 1) is not None


@pytest.mark.parametrize("args", [["--m", "2"], ["--l", "8", "--m", "8"], ["--l", "-1"]])
def test_analyze_bad_l_m_exit_2(tmp_path, capsys, args):
    path = tmp_path / "pet.txt"
    run(capsys, "generate", "gp", "5", "2", "--out", str(path))
    code, out, err = run(capsys, "analyze", str(path), *args)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "need 0 <= l < m and m >= 3" in err


@pytest.mark.parametrize("m", [MAX_ANALYZE_M + 1, 10**9])
def test_analyze_m_above_cap_exit_2(tmp_path, capsys, monkeypatch, m):
    path = tmp_path / "pet.txt"
    run(capsys, "generate", "gp", "5", "2", "--out", str(path))
    assert run(capsys, "analyze", str(path), "--m", str(MAX_ANALYZE_M))[:2] == (0, "regular, lambda=0\n")
    monkeypatch.setattr(cli, "regularity_scan", lambda *a: pytest.fail("regularity_scan was called"))
    code, out, err = run(capsys, "analyze", str(path), "--l", "1", "--m", str(m))
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("analyze error:")
    assert MAX_ANALYZE_M >= 8  # the paper's largest cycle length


@pytest.mark.parametrize("spec,message", [("5..x", "--n-range"), ("3..3", "parameter error")])
def test_bench_bad_range_exit_2(capsys, spec, message):
    code, out, err = run(capsys, "bench", "--family", "i", "--n-range", spec)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and message in err


@pytest.mark.parametrize("argv,message", [
    (["--family", "fq", "--n-range", "1..2"], "FQ_1 has no edges"),
    (["--family", "fq", "--n-range", "1..1", "--repeats", "3"], "FQ_1 has no edges"),
    (["--family", "i", "--n-range", "200..200", "--repeats", "0"], "bad --repeats"),
    (["--family", "fq", "--n-range", "3..4", "--repeats", "-1"], "bad --repeats"),
])
def test_bench_nothing_to_time_exit_2(capsys, argv, message):
    # FQ_1 has no edges to divide by, and no repeat gives no row
    code, out, err = run(capsys, "bench", *argv)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and message in err


def test_bench_fq_from_fq2(capsys):
    code, out, _ = run(capsys, "bench", "--family", "fq", "--n-range", "2..3")
    assert code == 0
    assert [line.split(",")[:2] for line in out.strip().splitlines()[1:]] == [["2", "1"], ["3", "6"]]


def test_bench_range_must_be_positive_and_ordered():
    # a start of 0 would never double past the end of the range
    for spec in ("0..3", "-2..3", "4..2"):
        with pytest.raises(ValueError):
            _parse_range(spec)
