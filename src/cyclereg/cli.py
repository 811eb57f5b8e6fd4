"""Command-line surface: generation, recognition, cycle analysis, table
reproduction, and a recognition micro-benchmark.

Exit codes: 0 success/accept, 1 reject/mismatch, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import re
import sys

from .cycles import octagon_partition, regularity_scan
from .families import (
    DPParams,
    FQParams,
    IParams,
    ParamOutOfRangeError,
    generate_dp,
    generate_folded_cube,
    generate_gp,
    generate_hypercube,
    generate_i_graph,
)
from .formats import (
    MAX_EDGE_LIST_VERTICES,
    ParseError,
    decode_graph6,
    emit_edge_list,
    encode_graph6,
    parse_edge_list,
)
from .graph import LabeledGraph, is_regular
from .recognition import (
    Certificate,
    recognize,
    recognize_dp,
    recognize_folded_cube,
    recognize_i_graph,
)
from .scans import (
    bench_fq_recognition,
    bench_i_recognition,
    check_fq_eight_cycle_conjecture,
    check_fq_formula,
    scan_cycle_regular_dp,
    scan_cycle_regular_i,
)
from .tables import CYCLE_REGULAR_DP, CYCLE_REGULAR_I


_BUILD = {  # family -> its member from the command-line parameters
    "i": lambda *ps: generate_i_graph(IParams(*ps)),
    "gp": generate_gp,
    "dp": lambda *ps: generate_dp(DPParams(*ps)),
    "fq": lambda *ps: generate_folded_cube(FQParams(*ps)),
    "q": generate_hypercube,
}


_PARAM_COUNT = {"i": 3, "gp": 2, "dp": 2, "fq": 1, "q": 1}


#: Largest member `generate --format graph6` writes: graph6 holds one bit per
#: vertex pair, so on a 2-core VM (Python 3.11) 4096 vertices (FQ_13, G(2048,2),
#: DP(1024,3)) take about 3.5 s and 1.4 MB, and each doubling four times that.
MAX_GRAPH6_VERTICES = 1 << 12


def _too_large(family: str, n: int, cap: int = MAX_EDGE_LIST_VERTICES) -> str | None:
    """A one-line refusal when the member whose first parameter is n has
    more than `cap` vertices (a power of two), else None.  Decided from n
    alone: nothing is built, not even the integer 2^n."""
    if family in ("fq", "q"):  # 2^(n-1) and 2^n vertices, compared by exponent
        too_large = n - (family == "fq") >= cap.bit_length()
    else:
        too_large = (4 if family == "dp" else 2) * n > cap
    if too_large:
        return f"family {family!r} with n = {n} has more than {cap} vertices"
    return None


def cmd_generate(args: argparse.Namespace) -> int:
    if len(args.params) != _PARAM_COUNT[args.family]:
        print(
            f"family {args.family!r} takes {_PARAM_COUNT[args.family]} parameter(s)",
            file=sys.stderr,
        )
        return 2
    graph6 = args.format == "graph6"
    cap = MAX_GRAPH6_VERTICES if graph6 else MAX_EDGE_LIST_VERTICES
    refusal = _too_large(args.family, args.params[0], cap)
    if refusal:
        print(f"parameter error: {refusal}" + (" for graph6" if graph6 else ""), file=sys.stderr)
        return 2
    try:
        g = _BUILD[args.family](*args.params)
    except (ParamOutOfRangeError, ValueError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    text = encode_graph6(g) + "\n" if graph6 else emit_edge_list(g)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _read_graph(path: str) -> LabeledGraph:
    """Read a graph file, sniffing the format.

    Edge lists start with a digit (the 'n m' header, comments aside);
    graph6 bytes live in '?'..'~', which excludes digits.
    """
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    line = _first_line(text)
    return parse_edge_list(text) if line[0].isdigit() else decode_graph6(line)


_LINE = re.compile(r"[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]+")  # as str.splitlines cuts


def _first_line(text: str) -> str:
    """The first line that is neither blank nor a comment, stripped."""
    for match in _LINE.finditer(text):
        line = match[0].strip()
        if line and not line.startswith("#"):
            return line
    raise ParseError("empty input")


def _describe(cert: Certificate) -> str:
    if cert.family == "i-graph":
        n, j, k = cert.canonical_params
        return f"I-graph I({n},{j},{k})"
    if cert.family == "dp-graph":
        n, k = cert.canonical_params
        return f"DP({n},{k})"
    n = cert.canonical_params[0]
    return f"folded cube FQ_{n}"


def cmd_recognize(args: argparse.Namespace) -> int:
    try:
        g = _read_graph(args.input)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    if args.family == "i":
        res = recognize_i_graph(g)
    elif args.family == "dp":
        res = recognize_dp(g)
    elif args.family == "fq":
        res = recognize_folded_cube(g)
    else:
        res = recognize(g)
    if isinstance(res, Certificate):
        print(_describe(res))
        if args.certificate:
            for v in range(g.n):
                print(f"{v} {res.labeling[v]}")
        return 0
    print(f"reject: {res.reason}" + (f" ({res.detail})" if res.detail else ""))
    return 1


#: Largest cycle length `analyze` scans.  `regularity_scan` costs grow
#: exponentially in m: on FQ_6 (32 vertices) with --l 1 the scan takes
#: about 0.01 s at m = 8, 0.06 s at m = 10 and 0.3 s at m = 12 (2-core
#: VM, Python 3.11).  The paper's constants need m <= 8.
MAX_ANALYZE_M = 10


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        g = _read_graph(args.input)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    if args.partition:
        if not is_regular(g, 3):
            print("partition requires a cubic graph", file=sys.stderr)
            return 2
        for sigma, edges in sorted(octagon_partition(g).items()):
            print(f"sigma={sigma}: {len(edges)} edges")
        return 0
    if args.m > MAX_ANALYZE_M:
        print(f"analyze error: --m {args.m} is above {MAX_ANALYZE_M}, "
              "the scan's cost grows exponentially in m", file=sys.stderr)
        return 2
    try:
        report = regularity_scan(g, args.l, args.m)
    except ValueError as exc:
        print(f"analyze error: {exc}", file=sys.stderr)
        return 2
    if report.is_regular:
        print(f"regular, lambda={report.lambda_value}")
    else:
        p1, c1, p2, c2 = report.witness
        print("not cycle-regular:")
        print(f"  path {list(p1)} lies on {c1} cycles of length {args.m}")
        print(f"  path {list(p2)} lies on {c2} cycles of length {args.m}")
    return 0


#: Largest dimension the FQ table scans (fq4, fq6, fq26, fq8conj) reach.
#: They count cycles in FQ_n by brute force, at a cost that grows faster
#: than the 2^(n-1) vertices: on a 2-core VM the fq8conj check takes about
#: 0.5 s at FQ_9 alone and 1.6 s at FQ_10, and fq26 1.1 s at FQ_11, 3.2
#: times its FQ_10 time.  The cap stays 9 so that each --max-n keeps its exit code.
MAX_FQ_TABLE_N = 9

#: Largest n the I and DP table scans (5, 8) reach.  Their grids hold on the
#: order of n^2 members at each order n, so a scan to n costs about n^3: on
#: a 2-core VM table 5 takes 1.0 s at n = 120 and 5 s at n = 200, table 8
#: 2 s and 10 s.
MAX_CUBIC_TABLE_N = 200


def cmd_verify_tables(args: argparse.Namespace) -> int:
    cap, growth = ((MAX_FQ_TABLE_N, "exponentially") if args.table.startswith("fq")
                   else (MAX_CUBIC_TABLE_N, "like n^3"))
    if args.max_n > cap:
        print(f"verify-tables error: --max-n {args.max_n} is above {cap} "
              f"for table {args.table}, the scan's cost grows {growth} in n",
              file=sys.stderr)
        return 2
    ok = True
    if args.table in ("5", "8"):
        label, published, scan = {
            "5": ("I", CYCLE_REGULAR_I, scan_cycle_regular_i),
            "8": ("DP", CYCLE_REGULAR_DP, scan_cycle_regular_dp),
        }[args.table]
        expected = {p: v for p, v in published.items() if p[0] <= args.max_n}
        found = scan(args.max_n)
        for p in sorted(set(expected) | set(found)):
            if expected.get(p) != found.get(p):
                ok = False
                print(f"DISCREPANCY at {label}{p}: expected {expected.get(p)}, "
                      f"found {found.get(p)}")
        print(f"[1,lambda,8]-cycle regular {label}-graphs with n <= {args.max_n}: "
              f"{len(found)} found, {len(expected)} expected")
    elif args.table in ("fq4", "fq6", "fq26"):
        l, m = {"fq4": (1, 4), "fq6": (1, 6), "fq26": (2, 6)}[args.table]
        dims = list(range(3, args.max_n + 1))
        for row in check_fq_formula(l, m, dims, published=True):
            status = "ok" if row.matches else "DISCREPANCY vs published value"
            print(f"FQ_{row.n} [{l},lambda,{m}]: published={row.formula} "
                  f"oracle={row.measured} {status}")
            ok = ok and row.matches
    elif args.table == "fq8conj":
        dims = list(range(4, args.max_n + 1))
        for row in check_fq_eight_cycle_conjecture(dims):
            verdict = "confirmed" if row.matches else "refuted"
            print(f"FQ_{row.n} [1,lambda,8]: conjectured={row.formula} "
                  f"oracle={row.measured} -> {verdict}")
            ok = ok and row.matches
    return 0 if ok else 1


def _parse_range(spec: str) -> tuple[int, int]:
    lo, _, hi = spec.partition("..")
    lo, hi = int(lo), int(hi or lo)
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= a <= b, got {spec!r}")
    return lo, hi


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        lo, hi = _parse_range(args.n_range)
    except ValueError as exc:
        print(f"bad --n-range (expected a..b): {exc}", file=sys.stderr)
        return 2
    if args.family == "fq" and lo < 2:
        print("bad --n-range: FQ_1 has no edges to time per edge", file=sys.stderr)
        return 2
    if args.repeats < 1:
        print(f"bad --repeats: need at least 1, got {args.repeats}", file=sys.stderr)
        return 2
    if args.family == "i":
        sizes = [lo]
        while 2 * sizes[-1] <= hi:
            sizes.append(2 * sizes[-1])
        largest = sizes[-1]
    else:
        largest = hi
    refusal = _too_large(args.family, largest)
    if refusal:
        print(f"parameter error: {refusal}", file=sys.stderr)
        return 2
    try:
        if args.family == "i":
            rows = bench_i_recognition(sizes, args.repeats)
        else:
            rows = bench_fq_recognition(list(range(lo, hi + 1)), args.repeats)
    except ParamOutOfRangeError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    print("n,edges,elapsed_ns,ns_per_edge")
    for r in rows:
        print(f"{r.n},{r.edges},{r.elapsed_ns},{r.ns_per_edge:.1f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cyclereg",
        description="Generate, analyze and recognize I-graphs, double "
        "generalized Petersen graphs and folded cubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a family member")
    p.add_argument("family", choices=["i", "gp", "dp", "fq", "q"])
    p.add_argument("params", nargs="+", type=int)
    p.add_argument("--format", choices=["edgelist", "graph6"], default="edgelist")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("recognize", help="recognize a graph file")
    p.add_argument("input")
    p.add_argument("--family", choices=["i", "dp", "fq", "auto"], default="auto")
    p.add_argument("--certificate", action="store_true",
                   help="print the vertex labeling of the accepted graph")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("analyze", help="cycle-regularity scan of a graph file")
    p.add_argument("input")
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--partition", action="store_true",
                   help="print the per-edge 8-cycle-count histogram instead")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify-tables", help="reproduce the published tables")
    p.add_argument("--table", choices=["5", "8", "fq4", "fq6", "fq26", "fq8conj"],
                   required=True)
    p.add_argument("--max-n", type=int, default=40)
    p.set_defaults(func=cmd_verify_tables)

    p = sub.add_parser("bench", help="recognition micro-benchmark (CSV)")
    p.add_argument("--family", choices=["i", "fq"], required=True)
    p.add_argument("--n-range", default="1000..64000",
                   help="a..b; doubling steps for i, unit steps for fq")
    p.add_argument("--repeats", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
