"""The cyclereg benchmark: one workload, measured from outside the library.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/`.  The
seeded inputs are written to `.bench_out/`, and the workload runs in
single-threaded processes (`worker.py`), one after another.  `--trace 0`
reports the end-to-end metrics: five processes each set up and run the
workload for S/5 seconds, so set-up is timed five times and every
operation is timed in five processes; the first process checks every
output and the others must give the same outputs.  `--trace 1` runs the
workload for S/2 seconds untraced and S/2 seconds traced, and reports the
per-layer metrics and the tracing overhead; the spans go to
`.bench_out/trace-W-N.json`.  The last line of the output is the result
as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
PROCESSES = 5
BUDGET_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "largest_op_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "formats.parse_s": "s",
    "formats.input_mb": "MB",
    "graph.setup_build_s": "s",
    "graph.build_s": "s",
    "graph.components_s": "s",
    "cycles.partition_s": "s",
    "cycles.partition_ns_per_edge": "ns/edge",
    "cycles.partition_calls": "count",
    "cycles.partitions_per_input": "count/input",
    "cycles.oracle_s": "s",
    "cycles.seed_paths": "count",
    "cycles.scan_s": "s",
    "recognition.i_pipeline_s": "s",
    "recognition.dp_pipeline_s": "s",
    "recognition.label_s": "s",
    "recognition.constant_s": "s",
    "recognition.other_s": "s",
    "recognition.extend_calls": "count",
    "recognition.extend_accepts": "count",
    "recognition.extend_hit_ratio": "ratio",
    "recognition.peel_s": "s",
    "recognition.peel_pivots": "count",
    "recognition.halving_s": "s",
    "recognition.verify_s": "s",
    "recognition.verify_calls": "count",
    "families.generate_s": "s",
    "families.generate_calls": "count",
    "families.canonical_s": "s",
    "scans.table5_s": "s",
    "scans.table8_s": "s",
    "scans.fq_formula_s": "s",
    "scans.fq8conj_s": "s",
    "trace.overhead_s": "s",
    "trace.untraced_wall_s": "s",
}


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, inputs: str, seconds: float, deadline: float, *extra: str) -> tuple[dict, float]:
    """Run one worker process; its JSON result and its set-up time."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--inputs", inputs, "--seconds", str(seconds), *extra]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload} worker passed the time budget") from None
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready_at"] - started


def medians_s(runs: list[dict]) -> list[float]:
    """Each operation's median time over every pass of every run."""
    return [
        statistics.median(t for r in runs for t in r["times_ns"][i]) / 1e9
        for i in range(len(runs[0]["ops"]))
    ]


def failures(runs: list[dict]) -> tuple[int, list[str]]:
    """Failed operations.  The first run checked its outputs; in a later run,
    an output that differs from the checked one, or equals a wrong one,
    fails on every pass."""
    checked, first_ok = runs[0]["digests"], runs[0]["first_ok"]
    failed, problems = 0, [p for r in runs for p in r["problems"]]
    for r in runs:
        for name, dig, ref, ok, bad in zip(r["ops"], r["digests"], checked, first_ok, r["bad_passes"]):
            if dig != ref:
                problems.append(f"{name}: output differs from the checked run")
            if dig != ref or not ok:
                bad = r["passes"]
            failed += bad
    return failed, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + BUDGET_S
    if not os.path.isfile(os.path.join(ROOT, "src", "cyclereg", "__init__.py")):
        print(f"no cyclereg sources under {ROOT}/src: run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import LARGEST, WORKLOADS, build_inputs

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    inputs = os.path.join(OUT_DIR, f"{tag}-inputs.json")
    with open(inputs, "w") as fh:
        json.dump(build_inputs(args.workload, args.seed), fh)
    try:
        if args.trace == 0:
            runs, setups = [], []
            for p in range(PROCESSES):
                result, setup = spawn(args.workload, inputs, args.seconds / PROCESSES, deadline,
                                      *(["--check"] if p == 0 else []))
                runs.append(result)
                setups.append(setup)
            op_s = medians_s(runs)
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": sum(op_s),
                "largest_op_s": op_s[runs[0]["ops"].index(LARGEST[args.workload])],
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            }
            units = END_TO_END
        else:
            traced, _ = spawn(args.workload, inputs, args.seconds / 2, deadline, "--check",
                              "--trace-out", os.path.join(OUT_DIR, f"trace-{tag}.json"))
            base, _ = spawn(args.workload, inputs, args.seconds / 2, deadline)
            runs = [traced, base]
            op_s = medians_s([traced])
            values = dict(traced["layers"])
            values["formats.input_mb"] = traced["input_mb"]
            values["trace.untraced_wall_s"] = sum(medians_s([base]))
            values["trace.overhead_s"] = sum(op_s) - values["trace.untraced_wall_s"]
            units = PER_LAYER
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        os.remove(inputs)

    failed, problems = failures(runs)
    passes = sum(r["passes"] for r in runs)
    for name, t in zip(runs[0]["ops"], op_s):
        print(f"{name:>16}  {t:9.4f} s  (median of {passes} passes)")
    for problem in problems:
        print("FAILED", problem)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["passes"] * len(r["ops"]) for r in runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
