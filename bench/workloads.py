"""The four workloads: their inputs, their ops and the checks on each op's output.

Every workload prepares its inputs from the seed alone.  Ops on fixed
inputs are checked against the stdout digest recorded in digests.json.
Ops on seeded random multigraphs are checked against identities the
benchmark computes itself: the spanning-tree count from an exact Bareiss
determinant of the Kirchhoff matrix, T(2,2) = 2^s, and T(1,0) as the number
of acyclic orientations with a unique source at vertex 0.  Random graphs
have a fixed (r, s) per slot, so the cost of a slot is comparable across
seeds.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil

from harness import Op, Prepared

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
with open(DIGESTS_PATH, "r", encoding="utf-8") as _handle:
    DIGESTS = json.load(_handle)

# ---------------------------------------------------------------- inputs


def random_multigraph(rng, r, s):
    """Loopless connected multigraph: a random spanning tree plus random extra edges, randomly oriented."""
    order = list(range(r))
    rng.shuffle(order)
    edges = [(order[i], order[rng.randrange(i)]) for i in range(1, r)]
    while len(edges) < s:
        edges.append(tuple(rng.sample(range(r), 2)))
    rng.shuffle(edges)
    return r, [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]


def write_graph(path, graph):
    r, edges = graph
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"format": "graph/1", "vertices": r, "edges": [[u, v] for u, v in edges]}, handle)
        handle.write("\n")
    return path


def spanning_trees(graph):
    """Kirchhoff's theorem: a cofactor of the Laplacian, by exact Bareiss elimination."""
    r, edges = graph
    lap = [[0] * r for _ in range(r)]
    for u, v in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    m = [row[1:] for row in lap[1:]]
    n = r - 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def unique_source_orientations(graph):
    """T(1,0): acyclic orientations whose only source is vertex 0 (Greene-Zaslavsky)."""
    r, edges = graph
    pairs = sorted({(min(u, v), max(u, v)) for u, v in edges})
    count = 0
    for mask in range(1 << len(pairs)):
        indegree = [0] * r
        out = [[] for _ in range(r)]
        for bit, (u, v) in enumerate(pairs):
            if mask >> bit & 1:
                u, v = v, u
            out[u].append(v)
            indegree[v] += 1
        if [x for x in range(r) if indegree[x] == 0] != [0]:
            continue
        ready, seen = [0], 0
        while ready:
            x = ready.pop()
            seen += 1
            for y in out[x]:
                indegree[y] -= 1
                if indegree[y] == 0:
                    ready.append(y)
        count += seen == r
    return count


# ---------------------------------------------------------------- checks


def digest_check(label):
    expected = DIGESTS.get(label)

    def check(stdout):
        if expected is None:
            return "no recorded digest"
        if hashlib.sha256(stdout).hexdigest() != expected:
            return "stdout differs from the recorded digest"
        return None

    return check


def _load_json(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def tutte_check(graph):
    """`tutte --json --eval 1 0` on a random graph: T(1,1), T(2,2) and T(1,0) identities."""
    r, edges = graph
    trees = spanning_trees(graph)

    def check(stdout):
        payload = _load_json(stdout)
        try:
            terms = [(int(i), int(j), int(c)) for i, j, c in payload["terms"]]
            value = int(payload["value"])
        except (TypeError, KeyError, ValueError):
            return "unreadable tutte output"

        def at(x, y):
            return sum(c * x**i * y**j for i, j, c in terms)

        if at(1, 1) != trees:
            return "T(1,1) = %d, spanning trees = %d" % (at(1, 1), trees)
        if at(2, 2) != 2 ** len(edges):
            return "T(2,2) != 2^%d" % len(edges)
        if value != at(1, 0) or value < 1:
            return "T(1,0) = %d is wrong" % value
        return None

    return check


def matroid_check(graph):
    """`matroid --json` on a small random graph: f, h and the sphere count."""
    r, edges = graph
    trees = spanning_trees(graph)
    spheres = unique_source_orientations(graph)
    rank = len(edges) - r + 1

    def check(stdout):
        payload = _load_json(stdout)
        try:
            f = [int(v) for v in payload["f"]]
            h = [int(v) for v in payload["h"]]
            got = (int(payload["edges"]), int(payload["rank"]), int(payload["top_betti"]))
        except (TypeError, KeyError, ValueError):
            return "unreadable matroid output"
        if got != (len(edges), rank, spheres):
            return "(edges, rank, top_betti) = %r, expected %r" % (got, (len(edges), rank, spheres))
        if len(f) != rank + 1 or f[0] != 1 or f[-1] != trees or sum(h) != trees or h[-1] != spheres:
            return "f/h vectors disagree with %d bases and %d spheres" % (trees, spheres)
        return None

    return check


def homology_check(graph):
    """`matroid-homology --json` on a small random graph: a wedge of T(1,0) spheres."""
    r, edges = graph
    spheres = unique_source_orientations(graph)
    rank = len(edges) - r + 1
    expected = [0] * rank + [spheres]

    def check(stdout):
        payload = _load_json(stdout)
        try:
            ranks = [int(item["rank"]) for item in payload["ranks"]]
            wedge = payload["wedge"]
        except (TypeError, KeyError, ValueError):
            return "unreadable homology output"
        if ranks != expected or wedge is not True:
            return "reduced homology %r, expected %r" % (ranks, expected)
        return None

    return check


def gale_check(graph):
    """`gale --json` on a random graph: shapes, exactness flag and A * B = 0."""
    r, edges = graph
    s = len(edges)
    b1 = s - r + 1

    def check(stdout):
        payload = _load_json(stdout)
        try:
            A = [[int(x) for x in row] for row in payload["A"]]
            B = [[int(x) for x in row] for row in payload["B"]]
            exact = payload["exact"]
        except (TypeError, KeyError, ValueError):
            return "unreadable gale output"
        if exact is not True:
            return "exactness not reported"
        if [len(row) for row in A] != [s] * (r - 1) or [len(row) for row in B] != [b1] * s:
            return "A or B has the wrong shape"
        for row in A:
            support = [(j, a) for j, a in enumerate(row) if a]
            if any(sum(a * B[j][k] for j, a in support) for k in range(b1)):
                return "A * B != 0"
        return None

    return check


def same_as(reference, check):
    def both(stdout):
        if stdout != reference:
            return "stdout differs from the same op with no cache file"
        return check(stdout)

    return both


# ---------------------------------------------------------------- workloads


def _ones(k):
    return ",".join(["1"] * k)


def spectral(command, partition, genus, *extra):
    """Label and argv of an op on the spectral dual graph of a partition at a genus."""
    label = "%s %s g=%d%s" % (command, partition, genus, "".join(" " + e for e in extra))
    return label, [command, "--partition", partition, "--genus", str(genus)] + list(extra)


PROBE = ("partition n=6", ["partition", "--n", "6"])

RANKS_FIXED = [("report n=%d" % n, ["report", "--n", str(n)]) for n in (8, 10, 12, 13, 14, 15, 16)]
RANKS_STRINGS = [(12, 6), (15, 5), (16, 8), (18, 6), (18, 9)]
RANKS_FIXED += [
    ("strings n=%d gcd=%d" % (n, q), ["strings", "--n", str(n), "--d", str(q)]) for n, q in RANKS_STRINGS
]

TUTTE_FIXED = [
    spectral("tutte", p, g, "--eval", "1", "0")
    for p, g in [(_ones(9), 2), (_ones(10), 2), ("2,1,1", 3), ("3,2,1", 3), ("2,1,1,1", 4)]
]
TUTTE_FIXED += [spectral("strata", _ones(7), 2), spectral("strata", "2,1,1,1", 3)]
TUTTE_FIXED += [spectral(command, "2,1,1", 20000) for command in ("dims", "local-model", "graph")]
TUTTE_RANDOM = [(7, 18), (8, 20), (8, 22), (9, 22), (10, 22), (10, 24)]

CACHE_PRIMED = [spectral("tutte", _ones(9), 2, "--eval", "1", "0"), spectral("strata", _ones(7), 2)]
CACHE_REPEATED = [spectral("tutte", _ones(8), 2, "--eval", "1", "0"), spectral("strata", _ones(6), 2)]
CACHE_NEW = [spectral("tutte", "2,1,1", 3, "--eval", "1", "0")]
CACHE_RANDOM = [(8, 22)]

ORACLES_FIXED = [
    spectral("matroid", "2,1", 5),
    spectral("matroid", "1,1,1", 3),
    spectral("matroid", "1,1,1,1", 2),
    spectral("matroid-homology", "2,1", 3),
    spectral("matroid-homology", "1,1,1", 2),
    spectral("matroid-homology", "2,1,1", 2),
    spectral("gale", "2,1,1,1", 8),
    spectral("gale", _ones(5), 10),
]
ORACLES_SMALL = [(5, 9), (5, 9), (5, 9)]
ORACLES_GALE = [(8, 150), (10, 250)]

# every op whose stdout is checked against digests.json, with the argv it was recorded with
FIXED_OPS = dict(
    [PROBE] + RANKS_FIXED + TUTTE_FIXED + CACHE_PRIMED + CACHE_REPEATED + CACHE_NEW + ORACLES_FIXED
)


def fixed(label_argv):
    label, argv = label_argv
    return Op(label, argv, digest_check(label))


def _probe(runner):
    """Start the program once and check its answer before anything is timed."""
    runner.run_checked(fixed(PROBE))


def _rng(workload, seed, slot):
    return random.Random("%s/%d/%s" % (workload, seed, slot))


def _random_graphs(workload, seed, inputs, slots):
    """Seeded random graphs, one per (r, s) slot, written as graph/1 files: [(slot, graph, path)]."""
    out = []
    for slot, (r, s) in enumerate(slots):
        graph = random_multigraph(_rng(workload, seed, slot), r, s)
        out.append((slot, graph, write_graph(os.path.join(inputs, "%s-%d.json" % (workload, slot)), graph)))
    return out


def _random_tutte(workload, seed, inputs, slots):
    argv = ["tutte", "--eval", "1", "0", "--json", "--quiver"]
    return [
        Op("tutte random %d" % slot, argv + [path], tutte_check(graph), seeded=True)
        for slot, graph, path in _random_graphs(workload, seed, inputs, slots)
    ]


def ranks(seed, inputs, runner):
    """String-rank tables: the rank recursion and partition enumeration only, no graph code.

    The seed picks each degree among those with the same gcd(n, d); the table
    depends on d only through that gcd, so output and cost stay the same.
    """
    _probe(runner)
    rng = _rng("ranks", seed, "degrees")
    ops = []
    for label, argv in RANKS_FIXED:
        if argv[0] == "strings":
            n, q = int(argv[2]), int(argv[4])
            m = rng.choice([k for k in range(1, 100) if math.gcd(k, n // q) == 1])
            argv = argv[:4] + [str(q * m)]
        ops.append(fixed((label, argv)))
    return Prepared(ops)


def tutte_cold(seed, inputs, runner):
    """Tutte polynomials and strata with no cache file, plus edge-list storage at high genus."""
    _probe(runner)
    ops = [fixed(op) for op in TUTTE_FIXED] + _random_tutte("tutte_cold", seed, inputs, TUTTE_RANDOM)
    return Prepared(ops)


def cache_warm(seed, inputs, runner):
    """Ops that read and rewrite one primed Tutte cache file.

    Set-up runs every op once with no cache file for its reference output,
    then primes the cache with CACHE_PRIMED.  Before each pass the primed
    file is restored, so the new instances insert the same entries in
    every pass.
    """
    _probe(runner)
    cache_file = os.path.join(inputs, "tutte-cache.json")
    primed_copy = os.path.join(inputs, "primed-cache.json")
    base = [fixed(op) for op in CACHE_PRIMED + CACHE_REPEATED + CACHE_NEW]
    base += _random_tutte("cache_warm", seed, inputs, CACHE_RANDOM)
    ops = []
    for op in base:
        reference = runner.run_checked(op).stdout
        check = same_as(reference, op.check)
        ops.append(Op(op.label + " cached", op.argv + ["--cache", cache_file], check, seeded=op.seeded))
    for op in ops[: len(CACHE_PRIMED)]:
        runner.run_checked(op)
    shutil.copyfile(cache_file, primed_copy)
    return Prepared(ops, before_pass=lambda: shutil.copyfile(primed_copy, cache_file), cache_file=cache_file)


def oracles(seed, inputs, runner):
    """Brute-force matroid data, matroid-complex homology and Gale duals."""
    _probe(runner)
    ops = [fixed(op) for op in ORACLES_FIXED]
    for slot, graph, path in _random_graphs("oracles-small", seed, inputs, ORACLES_SMALL):
        for command, check in (("matroid", matroid_check), ("matroid-homology", homology_check)):
            argv = [command, "--json", "--quiver", path]
            ops.append(Op("%s random %d" % (command, slot), argv, check(graph), seeded=True))
    for slot, graph, path in _random_graphs("oracles-gale", seed, inputs, ORACLES_GALE):
        argv = ["gale", "--json", "--quiver", path]
        ops.append(Op("gale random %d" % slot, argv, gale_check(graph), seeded=True))
    return Prepared(ops)


WORKLOADS = {
    "ranks": ranks,
    "tutte_cold": tutte_cold,
    "cache_warm": cache_warm,
    "oracles": oracles,
}
