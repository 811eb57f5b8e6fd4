"""Outside-in layer trace: spans around the library's public functions.

`Tracer.install` wraps each function below at every `cyclereg` module
attribute that holds it, so a function imported by name into another
module (`cyclereg.recognition.octagon_partition`, ...) is wrapped where the
program calls it.  Spans are kept in memory and written out at the end;
`layer_metrics` turns them into per-layer self times and counts.  No file
of the library changes.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import Counter
from time import perf_counter_ns

#: The traced functions, by module.
TRACED = {
    "formats": ["parse_edge_list", "decode_graph6"],
    "graph": ["build_graph", "connected_components"],
    "cycles": ["octagon_partition", "octagon_value", "count_cycles_through_path", "regularity_scan"],
    "families": ["generate_i_graph", "generate_dp", "generate_folded_cube",
                 "canonical_i_params", "dp_canonical_params"],
    "recognition": ["recognize", "recognize_i_graph", "recognize_dp", "recognize_folded_cube",
                    "extend_i", "extend_dp", "extend_fq", "exact_i_isomorphism",
                    "exact_dp_isomorphism", "find_isomorphism", "determine_diagonals",
                    "verify_certificate"],
    "scans": ["scan_cycle_regular_i", "scan_cycle_regular_dp", "check_fq_formula",
              "check_fq_eight_cycle_conjecture", "canonical_i_grid", "dp_grid", "measured_octagon"],
}

#: Inside a partition every traced call runs unwrapped: `cycles.partition_s`
#: includes the per-edge oracle calls, and a span per edge would cost more
#: than the call.
QUIET_INSIDE = "cycles.octagon_partition"

SETUP = -1  # op id of the set-up phase


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []  # key, start, end, parent, op
        self.stack: list[int] = []
        self.op = SETUP
        self.quiet = False
        self.counts: Counter = Counter()  # (op, counter name) -> value

    def _wrap(self, key: str, fn):
        tracer = self
        quiet_inside = key == QUIET_INSIDE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.quiet:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(idx)
            tracer.quiet = quiet_inside
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer.quiet = False
                tracer.stack.pop()
                tracer.spans[idx] = (key, start, end, parent, tracer.op)
            tracer._count(key, result)
            return result

        return wrapper

    def _count(self, key: str, result) -> None:
        kind = type(result).__name__
        if key == "cycles.octagon_partition":
            self.counts[self.op, "partition_edges"] += sum(map(len, result.values()))
        elif key in ("recognition.extend_i", "recognition.extend_dp") and kind == "Certificate":
            self.counts[self.op, "extend_accepts"] += 1
        elif key == "recognition.determine_diagonals" and kind == "DiagonalState":
            self.counts[self.op, "peel_pivots"] += result.pivots

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cyclereg"]
        for mod_name, names in TRACED.items():
            module = sys.modules[f"cyclereg.{mod_name}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{mod_name}.{name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def write(self, path: str, op_names: list[str]) -> None:
        with open(path, "w") as fh:
            json.dump({"ops": op_names, "fields": ["key", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans, "counts": [[*k, v] for k, v in self.counts.items()]}, fh)


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


#: Self-time metrics: name -> traced keys.
SELF_TIME = {
    "graph.build_s": ["graph.build_graph"],
    "graph.components_s": ["graph.connected_components"],
    "cycles.partition_s": ["cycles.octagon_partition"],
    "cycles.oracle_s": ["cycles.count_cycles_through_path"],
    "cycles.scan_s": ["cycles.regularity_scan", "cycles.octagon_value"],
    "recognition.other_s": ["recognition.recognize", "recognition.recognize_folded_cube",
                            "recognition.extend_i", "recognition.extend_dp"],
    "recognition.i_pipeline_s": ["recognition.recognize_i_graph"],
    "recognition.dp_pipeline_s": ["recognition.recognize_dp"],
    "recognition.label_s": ["recognition.exact_i_isomorphism", "recognition.exact_dp_isomorphism"],
    "recognition.constant_s": ["recognition.find_isomorphism"],
    "recognition.peel_s": ["recognition.determine_diagonals"],
    "recognition.halving_s": ["recognition.extend_fq"],
    "recognition.verify_s": ["recognition.verify_certificate"],
    "families.generate_s": ["families.generate_i_graph", "families.generate_dp",
                            "families.generate_folded_cube"],
    "families.canonical_s": ["families.canonical_i_params", "families.dp_canonical_params"],
}

#: Call-count metrics: name -> traced keys.
CALLS = {
    "cycles.partition_calls": ["cycles.octagon_partition"],
    "cycles.seed_paths": ["cycles.count_cycles_through_path"],
    "recognition.extend_calls": ["recognition.extend_i", "recognition.extend_dp"],
    "recognition.verify_calls": ["recognition.verify_certificate"],
    "families.generate_calls": SELF_TIME["families.generate_s"],
}

#: Self time of the scans layer, by table op.
SCAN_TABLES = {
    "scans.table5_s": ["table5"],
    "scans.table8_s": ["table8"],
    "scans.fq_formula_s": ["fq4", "fq6", "fq26"],
    "scans.fq8conj_s": ["fq8conj"],
}


def layer_metrics(tracer: Tracer, op_names: list[str], passes: int) -> dict[str, float]:
    """Per-layer metrics of one pass: times are medians over the passes,
    counts are per pass (every pass runs the same operations)."""
    n_ops = len(op_names)
    spans = tracer.spans
    own = self_times(spans)
    per_pass: dict[str, list[float]] = {}

    def add(metric: str, op: int, value: float) -> None:
        row = per_pass.setdefault(metric, [0.0] * passes)
        row[op // n_ops] += value

    setup = Counter()
    for (key, _, _, _, op), t in zip(spans, own):
        if op == SETUP:
            setup[key] += t
            continue
        for metric, keys in SELF_TIME.items():
            if key in keys:
                add(metric, op, t / 1e9)
        for metric, keys in CALLS.items():
            if key in keys:
                add(metric, op, 1)
        if key.startswith("scans."):
            for metric, ops in SCAN_TABLES.items():
                if op_names[op % n_ops] in ops:
                    add(metric, op, t / 1e9)
    for (op, name), value in tracer.counts.items():
        if op != SETUP:
            add(f"count.{name}", op, value)

    def med(metric: str) -> float:
        return statistics.median(per_pass.get(metric, [0.0] * passes))

    out = {metric: med(metric) for metric in [*SELF_TIME, *CALLS, *SCAN_TABLES]}
    out["formats.parse_s"] = (setup["formats.parse_edge_list"] + setup["formats.decode_graph6"]) / 1e9
    out["graph.setup_build_s"] = setup["graph.build_graph"] / 1e9
    edges = med("count.partition_edges")
    out["cycles.partition_ns_per_edge"] = out["cycles.partition_s"] * 1e9 / edges if edges else 0.0
    out["cycles.partitions_per_input"] = out["cycles.partition_calls"] / n_ops
    out["recognition.extend_accepts"] = med("count.extend_accepts")
    calls = out["recognition.extend_calls"]
    out["recognition.extend_hit_ratio"] = out["recognition.extend_accepts"] / calls if calls else 0.0
    out["recognition.peel_pivots"] = med("count.peel_pivots")
    return out
