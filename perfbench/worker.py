"""One workload in one single-threaded process.

    python3 perfbench/worker.py --workload W --inputs FILE --seconds S
                                [--check] [--trace-out FILE]

Set-up imports `cyclereg` from the checkout's `src/` and loads every input
through `parse_edge_list` or `decode_graph6`; the moment it ends is
reported as a CLOCK_MONOTONIC reading, so the parent can time set-up from
the moment it started this process.  Then whole passes over the
workload's operations run for about S seconds, each operation timed on its
own.  After the timed part, a later pass's output must equal the first
pass's; with --check every output is checked as well.  The result, with a
digest of each first-pass output, is printed as one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import cyclereg  # noqa: E402  (set-up starts here on purpose)
import cyclereg.scans  # noqa: E402  (the verify-tables computations, as the CLI imports them)


def load(path: str) -> tuple[list[dict], list]:
    with open(path) as fh:
        inputs = json.load(fh)
    graphs = [
        cyclereg.decode_graph6(e["text"]) if e["fmt"] == "graph6" else cyclereg.parse_edge_list(e["text"])
        for e in inputs
    ]
    return inputs, graphs


def scan_ops():
    from workloads import SCAN_FQ8_DIMS, SCAN_FQ_DIMS, SCAN_MAX_N

    scans = cyclereg.scans  # its functions are looked up at call time, so tracing reaches them
    return [
        ("table5", lambda: scans.scan_cycle_regular_i(SCAN_MAX_N)),
        ("table8", lambda: scans.scan_cycle_regular_dp(SCAN_MAX_N)),
        ("fq4", lambda: scans.check_fq_formula(1, 4, SCAN_FQ_DIMS, published=True)),
        ("fq6", lambda: scans.check_fq_formula(1, 6, SCAN_FQ_DIMS, published=True)),
        ("fq26", lambda: scans.check_fq_formula(2, 6, SCAN_FQ_DIMS, published=True)),
        ("fq8conj", lambda: scans.check_fq_eight_cycle_conjecture(SCAN_FQ8_DIMS)),
    ]


def run_passes(ops, seconds: float, tracer):
    """Whole passes, at least one, until the run is nearer to `seconds` than
    the next pass would bring it; per-op times in ns and the outputs (an
    exception is kept as its own output)."""
    times: list[list[int]] = [[] for _ in ops]
    outputs: list[list] = [[] for _ in ops]
    began = time.perf_counter()
    passes = 0
    elapsed = 0.0
    while passes == 0 or elapsed + elapsed / passes / 2 < seconds:
        for i, (_, op) in enumerate(ops):
            if tracer is not None:
                tracer.op = passes * len(ops) + i
            t0 = time.perf_counter_ns()
            try:
                out = op()
            except Exception as exc:  # a failed operation, counted below
                out = exc
            times[i].append(time.perf_counter_ns() - t0)
            # keep the first output whole; later ones only where they differ
            outputs[i].append(out if passes == 0 or out != outputs[i][0] else None)
        passes += 1
        elapsed = time.perf_counter() - began
    return times, outputs, passes


def verdict(workload: str, name: str, entry, output, reference) -> str | None:
    """None when the output is right, else what is wrong with it."""
    import checks  # imported after set-up, which times the library alone
    from graphs import read_text

    if isinstance(output, Exception):
        return f"{name}: {type(output).__name__}: {output}"
    if workload == "oracle_scans":
        if name in ("table5", "table8"):
            from workloads import SCAN_MAX_N

            problems = checks.check_table(name, output, SCAN_MAX_N)
        else:
            problems = checks.check_fq_rows(output, reference)
        return "; ".join(problems) or None
    is_cert = type(output).__name__ == "Certificate"
    if not entry["member"]:
        return f"{name}: certificate on a non-member" if is_cert else None
    if not is_cert:
        return f"{name}: member rejected ({output.reason})"
    n, edges = read_text(entry["fmt"], entry["text"])
    problem = checks.replay_certificate(n, edges, output)
    return f"{name}: {problem}" if problem else None


def digest(output) -> str:
    return hashlib.sha256(repr(output).encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--check", action="store_true", help="check every output")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()
    if not os.path.abspath(cyclereg.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"cyclereg imported from {cyclereg.__file__}, not from the checkout", file=sys.stderr)
        return 2

    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    inputs, graphs = load(args.inputs)
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)

    if args.workload == "oracle_scans":
        ops = scan_ops()
    else:
        ops = [(e["name"], lambda g=g: cyclereg.recognize(g)) for e, g in zip(inputs, graphs)]
    times, outputs, passes = run_passes(ops, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reference = None
    if args.check and args.workload == "oracle_scans":
        import checks

        reference = checks.load_reference()
    problems = []
    bad_passes = []
    first_ok = []
    for i, (name, _) in enumerate(ops):
        entry = inputs[i] if inputs else None
        first = outputs[i][0]
        first_problem = verdict(args.workload, name, entry, first, reference) if args.check else None
        first_ok.append(first_problem is None)
        bad = 0
        for out in outputs[i]:
            if out is None or out is first:
                problem = first_problem
            elif args.check:
                problem = verdict(args.workload, name, entry, out, reference)
            else:
                problem = f"{name}: output differs from the first pass"
            if problem:
                bad += 1
                problems.append(problem)
        bad_passes.append(bad)

    result = {
        "ready_at": ready_at,
        "ops": [name for name, _ in ops],
        "times_ns": times,
        "passes": passes,
        "digests": [digest(out[0]) for out in outputs],
        "first_ok": first_ok,
        "bad_passes": bad_passes,
        "problems": problems[:20],
        "peak_rss_mb": peak_rss_mb,
        "input_mb": sum(len(e["text"]) for e in inputs) / 1e6,
    }
    if tracer is not None:
        from tracing import layer_metrics

        tracer.write(args.trace_out, result["ops"])
        result["layers"] = layer_metrics(tracer, result["ops"], passes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
