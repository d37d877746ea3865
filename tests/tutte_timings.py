"""Time tutte_polynomial on the sparse, dense and twin-rich graphs that pick its engines.

Usage (from the root of a checkout): python3 tests/tutte_timings.py [NAME ...] [--timeout S]

Each input is rebuilt from its seed or its shape and run in a fresh process
on the checkout's own src/.  A graph (INPUTS) goes to tutte_polynomial, and
so does the spectral dual graph of a partition and genus (PARTITIONS, named
like "2,1,1 g=16384"), built inside the timed call.  One line per input: the
engine that ran (frontier, classes, or "-" when the checkout has neither),
the in-process time of the call, the peak RSS of the process, and the
first 16 hex digits of the sha256 of str(T); or "refused" and the error, or
"timeout".  pytest does not collect this file.
"""

import hashlib
import os
import random
import resource
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def seeded(r, s, seed=None):
    """r vertices: vertex v joined to rng.randrange(v), then random non-loop edges up to s, from Random(seed or r)."""
    rng = random.Random(r if seed is None else seed)
    edges = [(rng.randrange(v), v) for v in range(1, r)]
    while len(edges) < s:
        u, v = rng.randrange(r), rng.randrange(r)
        if u != v:
            edges.append((u, v))
    return r, edges


def cycle(r, k=1):
    return r, [(v, (v + 1) % r) for v in range(r) for _ in range(k)]


def prism(m, k=1):
    """C_m x K_2, each edge k-fold."""
    edges = [(v, (v + 1) % m) for v in range(m)] + [(m + v, m + (v + 1) % m) for v in range(m)]
    return 2 * m, [e for e in edges + [(v, m + v) for v in range(m)] for _ in range(k)]


def grid(m):
    edges = [(m * i + j, m * i + j + 1) for i in range(m) for j in range(m - 1)]
    return m * m, edges + [(m * i + j, m * (i + 1) + j) for i in range(m - 1) for j in range(m)]


def complete(r, k=1):
    return r, [(u, v) for u in range(r) for v in range(u + 1, r) for _ in range(k)]


def spectral(parts, genus):
    """The spectral dual graph of the partition, its edges in the order of `graph --emit`."""
    r = len(parts)
    return r, [(i, j) for i in range(r) for j in range(i + 1, r) for _ in range(parts[i] * parts[j] * (2 * genus - 2))]


INPUTS = {
    "seeded q10": lambda: seeded(10, 24),
    "seeded r16": lambda: seeded(16, 40),
    "seeded r20": lambda: seeded(20, 54),
    "seeded r24": lambda: seeded(24, 68),
    "seeded r30": lambda: seeded(30, 89),
    "d13": lambda: seeded(13, 64, 13064),
    "seeded d14": lambda: seeded(14, 73),
    "prism C10xK2": lambda: prism(10),
    "5x5 grid": lambda: grid(5),
    "C_800": lambda: cycle(800),
    "C_1600": lambda: cycle(1600),
    "C_50 bundles of 20": lambda: cycle(50, 20),
    "K10": lambda: complete(10),
    "1^10 at g=2, built": lambda: complete(10, 2),
    "prism C10xK2 bundles of 6": lambda: prism(10, 6),
    "2,1,1 g=16384, built": lambda: spectral((2, 1, 1), 16384),
    "5,4,3,2,1 g=100, built": lambda: spectral((5, 4, 3, 2, 1), 100),
    "3,3,2,2,1,1 g=50, built": lambda: spectral((3, 3, 2, 2, 1, 1), 50),
}

# partition inputs, as (parts, genus): the high-multiplicity blocks above and
# the last accepted and first refused input of each family
PARTITIONS = {
    "1^33 g=2": ((1,) * 33, 2),
    "1^34 g=2": ((1,) * 34, 2),
    "1^39 g=2": ((1,) * 39, 2),
    "1^40 g=2": ((1,) * 40, 2),
    "2,1,1 g=16384": ((2, 1, 1), 16384),
    "2,1,1 g=33330": ((2, 1, 1), 33330),
    "2,1,1 g=33331": ((2, 1, 1), 33331),
    "5,4,3,2,1 g=100": ((5, 4, 3, 2, 1), 100),
    "3,3,2,2,1,1 g=50": ((3, 3, 2, 2, 1, 1), 50),
    "1,1,1 g=30000": ((1, 1, 1), 30000),
    "1,1,1 g=55550": ((1, 1, 1), 55550),
    "1,1,1 g=55551": ((1, 1, 1), 55551),
    "1,1 g=293408": ((1, 1), 293408),
    "1,1 g=500000": ((1, 1), 500000),
    "1,1 g=500001": ((1, 1), 500001),
}


def run_one(name):
    sys.path.insert(0, SRC)
    from ngostrings import matroid
    from ngostrings.errors import ResourceLimitError
    from ngostrings.graphs import MultiGraph, spectral_dual_graph
    from ngostrings.partitions import Partition

    engines = []
    for engine, label in (("_frontier_tutte", "frontier"), ("_class_tutte", "classes")):
        inner = getattr(matroid, engine, None)
        if inner is not None:

            def recording(*args, inner=inner, label=label):
                engines.append(label)
                return inner(*args)

            setattr(matroid, engine, recording)
    if name in PARTITIONS:
        parts, genus = PARTITIONS[name]
        args, tutte = (Partition(parts), genus), lambda p, g: matroid.tutte_polynomial(spectral_dual_graph(p, g))
    else:
        args, tutte = (MultiGraph(*INPUTS[name]()),), matroid.tutte_polynomial
    start = time.perf_counter()
    try:
        poly = tutte(*args)
    except ResourceLimitError as exc:
        print("refused  %s" % exc)
        return
    elapsed = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    digest = hashlib.sha256(str(poly).encode("ascii")).hexdigest()[:16]
    print("%-8s  %8.3f s  %7.1f MiB  %s" % ("+".join(sorted(set(engines))) or "-", elapsed, rss, digest))


def main(argv):
    timeout = 60.0
    if "--timeout" in argv:
        at = argv.index("--timeout")
        timeout = float(argv[at + 1])
        argv = argv[:at] + argv[at + 2 :]
    for name in argv or [*INPUTS, *PARTITIONS]:
        try:
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--one", name],
                capture_output=True,
                text=True,
                timeout=timeout,
            )
            line = done.stdout.strip() or "error  " + done.stderr.strip().splitlines()[-1]
        except subprocess.TimeoutExpired:
            line = "timeout  no answer in %g s" % timeout
        print("%-26s  %s" % (name, line), flush=True)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        run_one(sys.argv[2])
    else:
        sys.exit(main(sys.argv[1:]))
