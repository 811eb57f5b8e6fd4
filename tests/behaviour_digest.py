"""One sha256 over what the library does on a fixed corpus, so that two
trees can be shown to behave the same:

    PYTHONPATH=src python tests/behaviour_digest.py

Run it on each tree (with that tree's `src/` first on the path) and
compare the printed digests.  The corpus is every I(n,j,k) and DP(n,k)
with n <= 24 and FQ_1..FQ_10, each relabeled and each 2-switched, plus 28
random cubic graphs, all from fixed seeds.  The digest covers:
- the `recognize` outcome of every input: the certificate (family,
  parameters and labeling) or the rejection's reason and detail;
- `list(octagon_partition(g).items())` of every cubic input, so the
  classes, the edge order and the key order;
- the stdout and exit code of `analyze - --partition` on every cubic input.

Its name does not start with `test_`, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys

from cyclereg import (
    Certificate,
    DPParams,
    FQParams,
    IParams,
    build_graph,
    emit_edge_list,
    generate_dp,
    generate_folded_cube,
    generate_i_graph,
    is_regular,
    octagon_partition,
    recognize,
)
from cyclereg.cli import main as cli_main

MAX_N = 24
FQ_DIMS = range(1, 11)
RANDOM_CUBIC = 28


def members():
    for n in range(3, MAX_N + 1):
        for j in range(1, (n + 1) // 2):
            for k in range(1, (n + 1) // 2):
                yield generate_i_graph(IParams(n, j, k))
        for k in range(1, (n + 1) // 2):
            yield generate_dp(DPParams(n, k))
    for d in FQ_DIMS:
        yield generate_folded_cube(FQParams(d))


def relabeled(n, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[a], perm[b]) for a, b in edges]
    rng.shuffle(out)
    return build_graph(n, out)


def two_switched(edges, rng, tries=200):
    """One degree-preserving 2-switch ab, cd -> ad, cb, or the edges as
    they are when none is found within `tries` draws."""
    have = set(edges)
    for _ in range(tries if len(edges) > 1 else 0):
        (a, b), (c, d) = rng.sample(edges, 2)
        ad, cb = (min(a, d), max(a, d)), (min(c, b), max(c, b))
        if len({a, b, c, d}) == 4 and ad not in have and cb not in have:
            return sorted(have - {(a, b), (c, d)} | {ad, cb})
    return edges


def random_cubic(n, rng):
    """A simple cubic graph from the pairing model, retried until simple."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(stubs[0::2], stubs[1::2]) if a != b}
        if len(pairs) == 3 * n // 2:
            return sorted(pairs)


def corpus():
    rng = random.Random(2020)
    for g in members():
        edges = list(g.edges())
        yield relabeled(g.n, edges, rng)
        yield relabeled(g.n, two_switched(edges, rng), rng)
    for i in range(RANDOM_CUBIC):
        n = 8 + 2 * i
        yield relabeled(n, random_cubic(n, rng), rng)


def outcome(g):
    res = recognize(g)
    if isinstance(res, Certificate):
        return ("accept", res.family, res.params, res.canonical_params, sorted(res.labeling.items()))
    return ("reject", res.reason, res.detail)


def analyze_partition(g):
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(emit_edge_list(g))
    try:
        with contextlib.redirect_stdout(out):
            code = cli_main(["analyze", "-", "--partition"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def main():
    digest = hashlib.sha256()
    inputs = accepts = cubic = 0
    for g in corpus():
        inputs += 1
        res = outcome(g)
        accepts += res[0] == "accept"
        digest.update(repr(res).encode())
        if is_regular(g, 3):
            cubic += 1
            digest.update(repr(list(octagon_partition(g).items())).encode())
            digest.update(repr(analyze_partition(g)).encode())
    print(f"{digest.hexdigest()} {inputs} inputs, {accepts} accepted, {cubic} cubic")


if __name__ == "__main__":
    main()
