import hashlib
from math import gcd

from cyclereg import IParams, canonical_i_params
from cyclereg.scans import (
    canonical_i_grid,
    check_fq_eight_cycle_conjecture,
    check_fq_formula,
    scan_cycle_regular_dp,
    scan_cycle_regular_i,
)


def test_canonical_i_grid_equals_per_pair_definition():
    # the reference: every gcd-1 triple that is its own canonical form,
    # one multiplier scan per pair
    reference = [
        IParams(n, j, k)
        for n in range(3, 41)
        for j in range(1, (n - 1) // 2 + 1)
        for k in range(j, (n - 1) // 2 + 1)
        if gcd(gcd(n, j), k) == 1 and canonical_i_params(IParams(n, j, k)) == IParams(n, j, k)
    ]
    assert canonical_i_grid(40) == reference


def test_scan_outputs_pinned():
    # one digest over the verify-tables scans at small sizes: a change to
    # the oracle or the grids that keeps every scan result keeps the digest
    dims = list(range(3, 8))
    outputs = (
        scan_cycle_regular_i(30),
        scan_cycle_regular_dp(30),
        check_fq_formula(1, 4, dims, published=True),
        check_fq_formula(1, 6, dims, published=True),
        check_fq_formula(2, 6, dims, published=True),
        check_fq_eight_cycle_conjecture([4, 5, 6]),
    )
    digest = hashlib.sha256()
    for out in outputs:
        digest.update(repr(out).encode())
    assert digest.hexdigest() == "a436bac07e1f7fbc992c9cf8e4f26d368ef03e73828cd3009a1ad8148d204c6f"
