"""Exhaustive parameter-grid scans and timing harnesses.

These drive both the `verify-tables` CLI command and the acceptance suite:
generate every family member on a grid, measure its cycle data with the
brute-force oracle, for comparison with the analytic predictions and the
published lists of cycle-regular members (both in `tables`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import gcd

from .cycles import OctagonTriple, octagon_value, regularity_scan
from .families import (
    DPParams,
    FQParams,
    IParams,
    _fold,
    generate_dp,
    generate_folded_cube,
    generate_i_graph,
)
from .recognition import Certificate, recognize_folded_cube, recognize_i_graph
from .tables import fq_lambda, published_fq_lambda


def canonical_i_grid(max_n: int) -> list[IParams]:
    """All canonical connected I-graph parameters with n <= max_n.

    The pairs (j, k) of each n are visited in ascending order, so the first
    one of an isomorphism class is its canonical one (`canonical_i_unit`);
    its class, {a*j, a*k} folded over the units a, is then marked seen.
    """
    grid = []
    for n in range(3, max_n + 1):
        half = (n - 1) // 2
        units = [a for a in range(1, n) if gcd(a, n) == 1]
        seen: set[tuple[int, int]] = set()
        for j in range(1, half + 1):
            for k in range(j, half + 1):
                if gcd(gcd(n, j), k) != 1 or (j, k) in seen:
                    continue
                grid.append(IParams(n, j, k))
                for a in units:
                    x, y = _fold(a * j, n), _fold(a * k, n)
                    seen.add((x, y) if x < y else (y, x))
    return grid


def dp_grid(max_n: int) -> list[DPParams]:
    """All DP-graph parameters with n <= max_n."""
    return [DPParams(n, k) for n in range(3, max_n + 1) for k in range(1, (n - 1) // 2 + 1)]


def measured_octagon(p: IParams | DPParams) -> OctagonTriple:
    """Oracle (outer, spoke, inner) 8-cycle triple of I(n,j,k) or DP(n,k).

    One seed edge per orbit, by the id convention: u_0 u_j, u_0 w_0 and
    w_0 w_k for I; u_0 u_1, u_0 w_0 and w_0 y_k for DP.  The rotation (and
    the DP copy swap) makes the count constant on each orbit.
    """
    n = p.n
    if isinstance(p, IParams):
        g = generate_i_graph(p)
        seeds = ((0, p.j), (0, n), (n, n + p.k))
    else:
        g = generate_dp(p)
        seeds = ((0, 1), (0, n), (n, 3 * n + p.k))
    return OctagonTriple(*(octagon_value(g, e) for e in seeds))


def scan_cycle_regular_i(max_n: int) -> dict[tuple[int, int, int], int]:
    """Canonical I-graphs with a constant per-edge 8-cycle count, by oracle."""
    return {(p.n, p.j, p.k): t.sigma_outer
            for p in canonical_i_grid(max_n) if (t := measured_octagon(p)).is_constant()}


def scan_cycle_regular_dp(max_n: int) -> dict[tuple[int, int], int]:
    """DP-graphs with a constant per-edge 8-cycle count, by oracle."""
    return {(p.n, p.k): t.sigma_outer
            for p in dp_grid(max_n) if (t := measured_octagon(p)).is_constant()}


@dataclass(frozen=True)
class FormulaCheck:
    n: int
    l: int
    m: int
    formula: int | None  # None: predicted not cycle-regular
    measured: int | None  # None: scan found a witness pair
    matches: bool


def check_fq_formula(
    l: int, m: int, dims: list[int], published: bool = False
) -> list[FormulaCheck]:
    """Oracle regularity scan vs the closed form, per dimension.

    With `published=True` the comparison is against the constants exactly
    as printed in the source tables (two of which the oracle refutes).
    """
    out = []
    for n in dims:
        pred = published_fq_lambda(n, l, m) if published else fq_lambda(n, l, m)
        report = regularity_scan(generate_folded_cube(FQParams(n)), l, m)
        out.append(
            FormulaCheck(n, l, m, pred.value, report.lambda_value,
                         pred.value == report.lambda_value)
        )
    return out


def check_fq_eight_cycle_conjecture(dims: list[int]) -> list[FormulaCheck]:
    """Brute-force [1,lambda,8] counts vs the published conjectured values
    (`published_fq_lambda`).

    A refutation here is a reportable outcome about the conjecture, not an
    implementation failure; the oracle is the authority.
    """
    return check_fq_formula(1, 8, dims, published=True)


@dataclass(frozen=True)
class BenchRow:
    n: int
    edges: int
    elapsed_ns: int
    ns_per_edge: float


def bench_i_recognition(sizes: list[int], repeats: int = 1) -> list[BenchRow]:
    """Time I-graph recognition on I(n,1,2); one row per repeat."""
    rows = []
    for n in sizes:
        g = generate_i_graph(IParams(n, 1, 2))
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            res = recognize_i_graph(g)
            dt = time.perf_counter_ns() - t0
            assert isinstance(res, Certificate)
            rows.append(BenchRow(n, g.m, dt, dt / g.m))
    return rows


def bench_fq_recognition(dims: list[int], repeats: int = 1) -> list[BenchRow]:
    """Time folded-cube recognition on FQ_n; one row per repeat."""
    rows = []
    for n in dims:
        g = generate_folded_cube(FQParams(n))
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            res = recognize_folded_cube(g)
            dt = time.perf_counter_ns() - t0
            assert isinstance(res, Certificate)
            rows.append(BenchRow(n, g.m, dt, dt / g.m))
    return rows

