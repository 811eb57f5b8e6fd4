"""Tests of the benchmark's own checkers and trace.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import cyclereg  # noqa: E402
from cyclereg import scans  # noqa: E402

import checks  # noqa: E402
import graphs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def relabeled(n, edges, seed=0):
    return graphs.relabel(n, edges, random.Random(seed))


def certified(n, edges):
    cert = cyclereg.recognize(cyclereg.build_graph(n, edges))
    assert isinstance(cert, cyclereg.Certificate)
    return cert


MEMBERS = {
    "G(7,2)": (14, graphs.i_graph_edges(7, 1, 2)),
    "I(12,2,3)": (24, graphs.i_graph_edges(12, 2, 3)),
    "I(60,2,6)": (120, graphs.i_graph_edges(60, 2, 6)),
    "DP(7,2)": (28, graphs.dp_edges(7, 2)),
    "DP(8,3)": (32, graphs.dp_edges(8, 3)),
    "FQ_6": (32, graphs.fq_edges(6)),
}


@pytest.mark.parametrize("name", MEMBERS)
def test_certificates_of_members_replay(name):
    n, edges = MEMBERS[name]
    edges = relabeled(n, edges)
    assert checks.replay_certificate(n, edges, certified(n, edges)) is None


@pytest.mark.parametrize("name", MEMBERS)
def test_tampered_certificates_are_caught(name):
    n, edges = MEMBERS[name]
    edges = relabeled(n, edges)
    cert = certified(n, edges)
    a, b = edges[0]
    c = next(v for v in edges[-1] if v not in (a, b))
    swapped = dict(cert.labeling)
    swapped[a], swapped[c] = swapped[c], swapped[a]
    duplicate = dict(cert.labeling)
    duplicate[a] = duplicate[b]
    stranger = dict(cert.labeling)
    stranger[a] = "z1" if cert.family != "folded-cube" else "2" * len(stranger[a])
    wrong = list(cert.params)
    wrong[-1] += 1
    for bad in (
        dataclasses.replace(cert, labeling=swapped),
        dataclasses.replace(cert, labeling=duplicate),
        dataclasses.replace(cert, labeling=stranger),
        dataclasses.replace(cert, params=tuple(wrong)),
        dataclasses.replace(cert, family="dp-graph" if cert.family == "i-graph" else "i-graph"),
    ):
        assert checks.replay_certificate(n, edges, bad) is not None


def test_odd_dp_comes_back_as_an_i_graph_and_replays():
    n, edges = 4 * 51, relabeled(4 * 51, graphs.dp_edges(51, 4))
    cert = certified(n, edges)
    assert cert.family == "i-graph"
    assert checks.replay_certificate(n, edges, cert) is None


INVARIANT_MEMBERS = [
    (800, graphs.i_graph_edges(400, 3, 5)),
    (800, graphs.dp_edges(200, 3)),
    (800, graphs.dp_edges(200, 7)),
    (20, graphs.i_graph_edges(10, 1, 3)),
    (48, graphs.i_graph_edges(24, 1, 5)),
    (40, graphs.dp_edges(10, 2)),
    (120, graphs.i_graph_edges(60, 2, 6)),
    (12000, graphs.i_graph_edges(6000, 1, 2)),
    (128, graphs.fq_edges(8)),
    (256, graphs.fq_edges(9)),
]


@pytest.mark.parametrize("n,edges", INVARIANT_MEMBERS, ids=range(len(INVARIANT_MEMBERS)))
def test_members_pass_the_invariant(n, edges):
    assert not checks.proves_nonmember(n, relabeled(n, edges))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n,edges", [m for m in INVARIANT_MEMBERS if m[0] >= 128],
                         ids=range(6))
def test_two_switched_members_fail_the_invariant(n, edges, seed):
    rng = random.Random(seed)
    switched = graphs.two_switch(list(edges), graphs.adjacency(n, edges), rng)
    assert checks.proves_nonmember(n, switched)


def test_nonmember_inputs_are_rejected_by_the_program():
    for entry in workloads.build_inputs("nonmembers", 0):
        n, edges = graphs.read_text(entry["fmt"], entry["text"])
        assert checks.proves_nonmember(n, edges)
        if n <= 4000:
            assert isinstance(cyclereg.recognize(cyclereg.build_graph(n, edges)), cyclereg.Rejection)


def test_formats_read_back_as_the_library_reads_them():
    n, edges = 48, relabeled(48, graphs.i_graph_edges(24, 1, 5))
    for fmt, text, parse in (("graph6", graphs.graph6_text(n, edges), cyclereg.decode_graph6),
                             ("edgelist", graphs.edge_list_text(n, edges), cyclereg.parse_edge_list)):
        back_n, back = graphs.read_text(fmt, text)
        g = parse(text)
        assert back_n == g.n == n
        assert {frozenset(e) for e in back} == {frozenset(e) for e in g.edges()} == {
            frozenset(e) for e in edges}
    big = relabeled(300, graphs.dp_edges(75, 2))
    assert cyclereg.decode_graph6(graphs.graph6_text(300, big)).m == len(big)


def test_own_canonical_grid_matches_the_library():
    assert checks.canonical_i_reps(40) == [(p.n, p.j, p.k) for p in scans.canonical_i_grid(40)]


def test_tables_agree_with_the_classification_and_tampering_is_caught():
    found5 = scans.scan_cycle_regular_i(30)
    found8 = scans.scan_cycle_regular_dp(30)
    assert checks.check_table("table5", found5, 30) == []
    assert checks.check_table("table8", found8, 30) == []
    assert checks.check_table("table5", {**found5, (8, 1, 3): 8}, 30)
    assert checks.check_table("table5", {**found5, (7, 1, 2): 8}, 30)
    assert checks.check_table("table8", {p: v for p, v in found8.items() if p != (10, 3)}, 30)


def test_fq_rows_agree_with_recounts_and_tampering_is_caught():
    reference = checks.load_reference()
    rows = scans.check_fq_formula(2, 6, [3, 4, 5, 6], published=True)
    assert [r.matches for r in rows] == [True, False, True, False]  # the refuted constants
    assert checks.check_fq_rows(rows, reference) == []
    off = [dataclasses.replace(rows[2], measured=rows[2].measured + 1)]
    assert len(checks.check_fq_rows(off, reference)) == 2  # recount and closed form
    conj = scans.check_fq_eight_cycle_conjecture([4, 5])
    assert checks.check_fq_rows(conj, reference) == []
    assert checks.check_fq_rows([dataclasses.replace(conj[1], measured=996)], reference)


def test_networkx_recount_gives_the_verified_values():
    assert checks.networkx_lambda(4, 2, 6) == 12
    assert checks.networkx_lambda(5, 1, 8) == 672
    assert checks.networkx_lambda(6, 1, 4) == 5


def test_reference_file_covers_every_row_not_recounted_live():
    reference = checks.load_reference()
    for (l, m), live_max in checks.LIVE_RECOUNT.items():
        dims = workloads.SCAN_FQ8_DIMS if (l, m) == (1, 8) else workloads.SCAN_FQ_DIMS
        assert {(l, m, n) for n in dims if n > live_max} <= set(reference)


def test_outputs_differing_from_the_checked_run_count_as_failed():
    checked = {"ops": ["a", "b"], "digests": ["x", "y"], "first_ok": [True, True],
               "bad_passes": [0, 1], "passes": 2, "problems": ["b: wrong on pass 2"]}
    same = dict(checked, first_ok=[None, None], bad_passes=[0, 0], problems=[])
    other = dict(same, digests=["x", "z"])
    assert run.failures([checked, same])[0] == 1
    assert run.failures([checked, same, other])[0] == 3
    wrong_first = dict(checked, first_ok=[False, True], bad_passes=[2, 0])
    assert run.failures([wrong_first, same])[0] == 4


def test_self_time_subtracts_direct_children():
    spans = [("a", 0, 100, -1, 0), ("b", 10, 40, 0, 0), ("c", 20, 30, 1, 0), ("d", 50, 60, 0, 0)]
    assert tracing.self_times(spans) == [60, 20, 10, 10]


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_traced_worker_wraps_imported_names_and_counts_partitions(tmp_path):
    inputs = []
    for name, (n, edges), member in (("G(7,2)", MEMBERS["G(7,2)"], True),
                                     ("DP(8,3)", MEMBERS["DP(8,3)"], True)):
        inputs.append({"name": name, "fmt": "graph6", "member": member,
                       "text": graphs.graph6_text(n, relabeled(n, edges))})
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps(inputs))
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", "cubic_members",
         "--inputs", str(path), "--seconds", "0", "--check",
         "--trace-out", str(tmp_path / "trace.json")],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["passes"] == 1 and result["bad_passes"] == [0, 0]
    layers = result["layers"]
    # G(7,2): one partition; DP(8,3): the I pipeline's and the DP pipeline's
    assert layers["cycles.partition_calls"] == 3
    assert layers["recognition.extend_accepts"] == 2
    assert layers["formats.parse_s"] > 0
    keys = {s[0] for s in json.loads((tmp_path / "trace.json").read_text())["spans"]}
    assert {"cycles.octagon_partition", "recognition.recognize_dp", "graph.build_graph"} <= keys
