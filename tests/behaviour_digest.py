"""One sha256 over what the library does on a fixed corpus, so that two
trees can be shown to behave the same:

    PYTHONPATH=src python tests/behaviour_digest.py

Run it on each tree (with that tree's `src/` first on the path) and
compare the printed digests.  The corpus, all from fixed seeds, is:
- every I(n,j,k) and DP(n,k) with n <= 24 and FQ_1..FQ_10, each relabeled
  and each 2-switched, plus 28 random cubic graphs;
- every connected I(n,j,k) with 25 <= n <= 48 whose rims both split, so
  that its labeling walks the inner cycles, relabeled;
- three frame-preserving near-misses of each of these, given with their
  own spokes: the spokes of the inner cycle through w_0 reflected, and the
  spokes of u_0 and u_j, and of u_0 and u_k, swapped.  `recognize`
  rejects the non-members among them in the octagon partition, so only
  `exact_i_isomorphism` puts the labeler to them.
The digest covers:
- the outcome of every input, `recognize` or, given spokes,
  `exact_i_isomorphism`: the certificate or labeling (family, parameters
  and labeling) or the rejection's reason and detail;
- `list(octagon_partition(g).items())` of every cubic input, so the
  classes, the edge order and the key order;
- the stdout and exit code of `analyze - --partition` on every cubic input.

A second line is one sha256 over `regularity_scan` on its own corpus:
- FQ_3..FQ_8 at the paper's (l, m) = (1,4), (1,6), (2,6) and (1,8);
- Q_3..Q_6 and FQ_3..FQ_7, each relabeled and each 2-switched, at every
  l <= 2 and l < m <= 8;
- 40 random graphs on 4..13 vertices at every l < m <= 8.
It covers each report, witness paths and counts included, and the stdout
and exit code of `analyze - --l l --m m` on the same graph.

Its name does not start with `test_`, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
from math import gcd

from cyclereg import (
    Certificate,
    DPParams,
    FQParams,
    IParams,
    build_graph,
    emit_edge_list,
    generate_dp,
    generate_folded_cube,
    generate_hypercube,
    generate_i_graph,
    is_regular,
    octagon_partition,
    recognize,
    regularity_scan,
)
from cyclereg.cli import main as cli_main
from cyclereg.recognition import exact_i_isomorphism

MAX_N = 24
FQ_DIMS = range(1, 11)
RANDOM_CUBIC = 28
MULTI_RIM_N = range(25, 49)


def members():
    for n in range(3, MAX_N + 1):
        for j in range(1, (n + 1) // 2):
            for k in range(1, (n + 1) // 2):
                yield generate_i_graph(IParams(n, j, k))
        for k in range(1, (n + 1) // 2):
            yield generate_dp(DPParams(n, k))
    for d in FQ_DIMS:
        yield generate_folded_cube(FQParams(d))


def multi_rim_members():
    for n in MULTI_RIM_N:
        for j in range(1, (n + 1) // 2):
            for k in range(1, (n + 1) // 2):
                if gcd(n, j) > 1 and gcd(n, k) > 1 and gcd(gcd(n, j), k) == 1:
                    yield IParams(n, j, k)


def relabeled(n, edges, rng, spokes=()):
    """g relabeled and its edges shuffled; with `spokes`, also the spokes
    relabeled."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[a], perm[b]) for a, b in edges]
    rng.shuffle(out)
    g = build_graph(n, out)
    return (g, [(perm[a], perm[b]) for a, b in spokes]) if spokes else g


def frame_near_misses(p, rng):
    """I(n,j,k) with the spoke of each u_i moved to w_{w_of[i]}, the rims
    untouched, for the three moves of the module docstring."""
    n, j, k = p.n, p.j, p.k
    rims = [e for e in generate_i_graph(p).edges() if e[1] - e[0] != n]
    moves = [list(range(n)) for _ in range(3)]
    for s in range(n // gcd(n, k)):
        moves[0][s * k % n] = -s * k % n
    for w_of, a in zip(moves[1:], (j, k)):
        w_of[0], w_of[a] = a, 0
    for w_of in moves:
        spokes = [(i, n + w_of[i]) for i in range(n)]
        yield relabeled(2 * n, rims + spokes, rng, spokes)


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
    for p in multi_rim_members():
        g = generate_i_graph(p)
        yield relabeled(g.n, list(g.edges()), rng)
        yield from frame_near_misses(p, rng)


def outcome(g, spokes=None):
    res = recognize(g) if spokes is None else exact_i_isomorphism(g, spokes)
    if isinstance(res, Certificate):
        return ("accept", res.family, res.params, res.canonical_params, sorted(res.labeling.items()))
    if isinstance(res, tuple):
        return ("accept", res[0], sorted(res[1].items()))
    return ("reject", res.reason, res.detail)


def analyze(g, *args):
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(emit_edge_list(g))
    try:
        with contextlib.redirect_stdout(out):
            code = cli_main(["analyze", "-", *args])
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def scan_corpus():
    """(graph, l, m) for the second digest, all from fixed seeds."""
    for n in range(3, 9):
        for l, m in ((1, 4), (1, 6), (2, 6), (1, 8)):
            yield generate_folded_cube(FQParams(n)), l, m
    rng = random.Random(2021)
    pairs = [(l, m) for m in range(3, 9) for l in range(min(3, m))]
    for g in [generate_hypercube(n) for n in range(3, 7)] + [generate_folded_cube(FQParams(n)) for n in range(3, 8)]:
        edges = list(g.edges())
        for variant in (relabeled(g.n, edges, rng), relabeled(g.n, two_switched(edges, rng), rng)):
            for l, m in pairs:
                yield variant, l, m
    for _ in range(40):
        n = rng.randint(4, 13)
        density = rng.uniform(0.2, 0.6)
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])
        for m in range(3, 9):
            for l in range(m):
                yield g, l, m


def main():
    digest = hashlib.sha256()
    inputs = accepts = cubic = 0
    for item in corpus():
        g, spokes = item if isinstance(item, tuple) else (item, None)
        inputs += 1
        res = outcome(g, spokes)
        accepts += res[0] == "accept"
        digest.update(repr(res).encode())
        if is_regular(g, 3):
            cubic += 1
            digest.update(repr(list(octagon_partition(g).items())).encode())
            digest.update(repr(analyze(g, "--partition")).encode())
    print(f"{digest.hexdigest()} {inputs} inputs, {accepts} accepted, {cubic} cubic")
    digest = hashlib.sha256()
    scans = regular = 0
    for g, l, m in scan_corpus():
        report = regularity_scan(g, l, m)
        scans += 1
        regular += report.is_regular
        digest.update(repr(report).encode())
        digest.update(repr(analyze(g, "--l", str(l), "--m", str(m))).encode())
    print(f"{digest.hexdigest()} {scans} scans, {regular} regular")


if __name__ == "__main__":
    main()
