"""The four workloads and their seeded inputs.

Sizes and parameters are fixed; the seed picks the relabelings, the edge
order, the 2-switches and the random cubic graphs.  So every seed gives
inputs of the same make-up and cost, and the benchmark knows the truth
about each one.
"""

from __future__ import annotations

import random

from checks import proves_nonmember
from graphs import (
    adjacency,
    dp_edges,
    edge_list_text,
    fq_edges,
    graph6_text,
    i_graph_edges,
    is_connected,
    random_cubic_edges,
    relabel,
    two_switch,
)

#: Graphs up to this order go over as graph6, larger ones as edge lists.
GRAPH6_MAX_ORDER = 300

#: (label, order, edges builder)
CUBIC_MEMBERS = [
    ("G(1000,2)", 2000, lambda: i_graph_edges(1000, 1, 2)),
    ("G(1500,3)", 3000, lambda: i_graph_edges(1500, 1, 3)),
    ("I(1200,4,9)", 2400, lambda: i_graph_edges(1200, 4, 9)),
    ("I(2000,2,6)", 4000, lambda: i_graph_edges(2000, 2, 6)),  # two copies of G(1000,3)
    ("G(8000,2)", 16000, lambda: i_graph_edges(8000, 1, 2)),
    ("G(10,3)", 20, lambda: i_graph_edges(10, 1, 3)),
    ("G(24,5)", 48, lambda: i_graph_edges(24, 1, 5)),
    ("DP(1001,3)", 4004, lambda: dp_edges(1001, 3)),  # odd n: an I-graph
    ("DP(1000,3)", 4000, lambda: dp_edges(1000, 3)),
    ("DP(10,2)", 40, lambda: dp_edges(10, 2)),
]

FQ_DIMS = range(9, 16)

#: (label, order, edges builder or None for a random cubic graph, 2-switches)
NONMEMBERS = [
    ("G(6000,2)~1", 12000, lambda: i_graph_edges(6000, 1, 2), 1),
    ("I(2000,3,5)~2", 4000, lambda: i_graph_edges(2000, 3, 5), 2),
    ("DP(1000,3)~1", 4000, lambda: dp_edges(1000, 3), 1),
    ("DP(600,7)~3", 2400, lambda: dp_edges(600, 7), 3),
    ("cubic-2000", 2000, None, 0),
    ("cubic-1000", 1000, None, 0),
    ("FQ_14~1", 8192, lambda: fq_edges(14), 1),
    ("FQ_13~2", 4096, lambda: fq_edges(13), 2),
    ("FQ_9~3", 256, lambda: fq_edges(9), 3),
]

#: The verify-tables computations (their ops are listed in worker.scan_ops).
SCAN_MAX_N = 60
SCAN_FQ_DIMS = list(range(3, 9))
SCAN_FQ8_DIMS = list(range(4, 8))

WORKLOADS = ("cubic_members", "fq_members", "nonmembers", "oracle_scans")


def _member(label: str, order: int, edges, rng: random.Random) -> dict:
    fmt = "graph6" if order <= GRAPH6_MAX_ORDER else "edgelist"
    mixed = relabel(order, edges, rng)
    text = graph6_text(order, mixed) if fmt == "graph6" else edge_list_text(order, mixed)
    return {"name": label, "fmt": fmt, "text": text, "member": True}


def _nonmember(label: str, order: int, build, switches: int, rng: random.Random) -> dict:
    while True:
        edges = build() if build else random_cubic_edges(order, rng)
        adj = adjacency(order, edges)
        for _ in range(switches):
            edges = two_switch(edges, adj, rng)
        if is_connected(order, adj) and proves_nonmember(order, edges):
            entry = _member(label, order, edges, rng)
            entry["member"] = False
            return entry


def build_inputs(workload: str, seed: int) -> list[dict]:
    """The workload's inputs: name, format, text and whether it is a member."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cubic_members":
        return [_member(label, order, build(), rng) for label, order, build in CUBIC_MEMBERS]
    if workload == "fq_members":
        return [_member(f"FQ_{d}", 1 << (d - 1), fq_edges(d), rng) for d in FQ_DIMS]
    if workload == "nonmembers":
        return [_nonmember(*spec, rng) for spec in NONMEMBERS]
    if workload == "oracle_scans":
        return []
    raise ValueError(f"unknown workload {workload!r}")


#: The operation behind largest_op_s: the largest input, or the slowest table.
LARGEST = {
    "cubic_members": "G(8000,2)",
    "fq_members": "FQ_15",
    "nonmembers": "G(6000,2)~1",
    "oracle_scans": "fq8conj",
}
