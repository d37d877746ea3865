"""The golden corpus: a fixed list of command lines and the files they read.

Each line of LINES is an argv for ``ngostrings.cli.run``, to be run in a
working directory that ``write_files`` has filled: graph files are named by
relative paths, so no output depends on where the directory is.  The lines
run in order, and a ``--cache`` line may create a file that a later line
finds.  digests.txt holds the sha256 of (status, stdout, stderr) of each
line; test_golden.py compares them and record.py rewrites them.

The corpus covers every subcommand, text and ``--json``: every partition
with n <= 5 at genus 2 (text) and genus 3 (``--json``), 30 seeded graph/1
files with loops and parallel edges, the first refused input of each
guard, malformed graph files and a cache warning.  ``matroid-homology`` on
a partition of 16 edges is left out: each takes about 0.4 s in process.
Usage errors and JSON decoder errors are worded by the interpreter, so the
digests hold for the Python version they were recorded with (3.11).
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shlex
from pathlib import Path

QUIVER_SEEDS = range(30)
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.txt"


def _partitions(n, largest=None):
    """Partitions of n as weakly decreasing tuples, reverse-lexicographic."""
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    return [(k,) + rest for k in range(min(n, largest), 0, -1) for rest in _partitions(n - k, k)]


def _edge_count(parts, genus):
    n = sum(parts)
    return (genus - 1) * (n * n - sum(p * p for p in parts))


def seeded_quiver(seed):
    """(vertices, edges) of a random graph/1 file with loops and parallel edges.

    A random spanning tree on 1 to 6 vertices with random orientations, then
    parallel copies of its edges, random edges and loops, at most 13 edges in
    all.  Every seed ending in 7 drops the tree edge of its last vertex, so
    that graph is disconnected when it has two or more vertices.
    """
    rng = random.Random("golden/%d" % seed)
    r = rng.randint(1, 6)
    edges = []
    for v in range(1, r):
        if seed % 10 == 7 and v == r - 1:
            continue
        u = rng.randrange(v)
        edges.append([u, v] if rng.random() < 0.5 else [v, u])
    for _ in range(rng.randint(0, 13 - len(edges))):
        kind = rng.random()
        if kind < 0.3 and edges:
            edges.append(list(rng.choice(edges)))
        elif kind < 0.5:
            v = rng.randrange(r)
            edges.append([v, v])
        else:
            edges.append([rng.randrange(r), rng.randrange(r)])
    rng.shuffle(edges)
    return r, edges


def _graph_text(vertices, edges):
    return json.dumps({"format": "graph/1", "vertices": vertices, "edges": edges})


# malformed inputs of the graph file reader, by file name
BAD_FILES = {
    "bad_json.json": "{",
    "nested.json": "[" * 100000,
    "not_object.json": "[]",
    "bad_format.json": json.dumps({"format": "graph/2", "vertices": 1, "edges": []}),
    "no_edges.json": json.dumps({"format": "graph/1", "vertices": 2}),
    "vertices_text.json": json.dumps({"format": "graph/1", "vertices": "2", "edges": []}),
    "vertices_zero.json": _graph_text(0, []),
    "edge_range.json": _graph_text(2, [[0, 2]]),
    "edge_bool.json": json.dumps({"format": "graph/1", "vertices": 2, "edges": [[True, 0]]}),
    "edge_triple.json": _graph_text(2, [[0, 1, 1]]),
}


def write_files(directory):
    """Write every file that LINES reads into the directory (a pathlib.Path)."""
    for seed in QUIVER_SEEDS:
        (directory / ("q%02d.json" % seed)).write_text(_graph_text(*seeded_quiver(seed)))
    for k in (16, 17):
        # the k-cycle, oriented around: k edges, one more than the last
        # ground set the homology oracle accepts when k = 17
        (directory / ("cycle%d.json" % k)).write_text(_graph_text(k, [[v, (v + 1) % k] for v in range(k)]))
    for name, text in BAD_FILES.items():
        (directory / name).write_text(text)


def _lines():
    lines = []
    add = lines.append
    for n in range(2, 9):
        for d in range(n + 1):
            add(["strings", "--n", str(n), "--d", str(d)] + (["--json"] if d % 2 else []))
    for n in range(1, 9):
        add(["report", "--n", str(n)] + (["--json"] if n % 2 else []))
        add(["partition", "--n", str(n)] + (["--json"] if n % 2 == 0 else []))
        add(["partition", "--n", str(n), "--d", str(n - 1)] + (["--json"] if n % 2 else []))

    for genus, tail in ((2, []), (3, ["--json"])):
        for n in range(1, 6):
            for parts in _partitions(n):
                spectral = ["--partition", ",".join(map(str, parts)), "--genus", str(genus)]
                add(["graph"] + spectral + tail)
                if genus == 2:
                    add(["graph"] + spectral + ["--dot"])
                    add(["graph"] + spectral + ["--dot", "--directed"])
                    add(["graph"] + spectral + ["--emit"])
                add(["gale"] + spectral + tail)
                add(["tutte"] + spectral + tail)
                add(["tutte"] + spectral + ["--eval", "2", "-1"] + tail)
                add(["matroid"] + spectral + tail)
                if _edge_count(parts, genus) < 16:
                    add(["matroid-homology"] + spectral + tail)
                add(["strata"] + spectral + tail)
                add(["local-model"] + spectral + tail)
                add(["dims"] + spectral + tail)

    for seed in QUIVER_SEEDS:
        source = ["--quiver", "q%02d.json" % seed]
        tail = ["--json"] if seed % 2 else []
        add(["graph"] + source + ["--dot"])
        add(["graph"] + source + ["--dot", "--directed"])
        add(["graph"] + source + ["--emit"])
        for command in ("graph", "gale", "tutte", "matroid", "matroid-homology", "strata"):
            add([command] + source + tail)
    for k in (16, 17):
        for tail in ([], ["--json"]):
            add(["matroid-homology", "--quiver", "cycle%d.json" % k] + tail)
    add(["tutte", "--quiver", "cycle17.json", "--eval", "1", "1"])
    add(["graph", "--quiver", "cycle17.json", "--dot", "--directed"])

    # the first refused input of each guard, text and --json
    refusals = [
        # MAX_PARTITIONS: p(42) = 53 174
        ["partition", "--n", "42"],
        ["strings", "--n", "42", "--d", "1"],
        ["report", "--n", "42"],
        # MAX_GRAPH_SIZE: 1,1 at genus g has 2 vertices and 2g - 2 edges
        ["graph", "--partition", "1,1", "--genus", "500001"],
        ["graph", "--partition", "1,1", "--genus", "500001", "--emit"],
        ["graph", "--partition", "1,1", "--genus", "500001", "--dot"],
        ["tutte", "--partition", "1,1", "--genus", "500001"],
        # MAX_DENSE_ENTRIES: the boundary matrix of 1^101 at genus 2 is 100 x 10 100
        ["gale", "--partition", ",".join(["1"] * 101), "--genus", "2"],
        # MAX_DENSE_ENTRIES, the Gale dual: 2,1,1 has 10 edges per genus step
        ["gale", "--partition", "2,1,1", "--genus", "101"],
        ["gale", "--partition", "2,1,1", "--genus", "102"],
        ["gale", "--partition", "1,1", "--genus", "501"],
        ["gale", "--partition", "1,1", "--genus", "502"],
        # MAX_GROUND_SET: 1,1 at genus 10 has 18 edges
        ["matroid-homology", "--partition", "1,1", "--genus", "10"],
        # MAX_STRATA_VERTICES
        ["strata", "--partition", ",".join(["1"] * 12), "--genus", "2"],
        # MAX_TUTTE_WORK
        ["tutte", "--partition", "2,1,1", "--genus", "33331"],
        ["tutte", "--partition", "1,1,1", "--genus", "55551"],
        # MAX_F_VECTOR_RANK: rank 5008
        ["matroid", "--partition", "2,1,1", "--genus", "502"],
        # MAX_EVAL_DIGITS: the bound on T(3,3) of 1,1 at genus 3570
        ["tutte", "--partition", "1,1", "--genus", "3570", "--eval", "3", "3"],
    ]
    for argv in refusals:
        add(argv)
        if argv[:1] != ["gale"] or argv[-1] in ("102", "502"):
            add(argv + ["--json"])
    add(["tutte", "--partition", "1,1", "--genus", "3569", "--eval", "3", "3"])

    # domain and usage errors
    for command in ("graph", "gale", "tutte", "matroid", "matroid-homology", "strata"):
        for name in sorted(BAD_FILES) + ["missing.json"]:
            add([command, "--quiver", name])
        add([command, "--partition", "2,1"])
        add([command, "--partition", "2,1", "--genus", "1"])
    for text in ("0", "2,,1", "a", "-1", "2,-1", ""):
        add(["dims", "--partition", text, "--genus", "2"])
        add(["gale", "--partition", text, "--genus", "2", "--json"])
    for argv in (
        [],
        ["nope"],
        ["strings", "--n", "4"],
        ["strings", "--n", "x", "--d", "1"],
        ["strings", "--n", "1", "--d", "1"],
        ["strings", "--n", "0", "--d", "1", "--json"],
        ["report", "--n", "1"],
        ["report", "--n", "0"],
        ["partition", "--n", "0"],
        ["partition", "--n", "-3", "--json"],
        ["dims", "--partition", "2,1"],
        ["local-model", "--partition", "1", "--genus", "1"],
        ["tutte", "--partition", "1,1", "--genus", "2", "--eval", "1"],
        ["graph", "--partition", "1,1", "--genus", "2", "--bogus"],
        ["graph", "--quiver", "q00.json", "--partition", "1,1", "--genus", "2"],
    ):
        add(argv)

    # --cache: created once, kept after; a path that cannot be created warns
    for argv in (
        ["tutte", "--partition", "2,1", "--genus", "2", "--cache", "tutte.cache"],
        ["tutte", "--partition", "2,1", "--genus", "2", "--cache", "tutte.cache", "--json"],
        ["matroid", "--quiver", "q03.json", "--cache", "tutte.cache"],
        ["matroid", "--partition", "2,1", "--genus", "2", "--cache", "no/such/dir.cache"],
        ["strata", "--partition", "2,1", "--genus", "2", "--cache", "no/such/dir.cache"],
    ):
        add(argv)
    return lines


LINES = _lines()


def run_lines(directory):
    """Yield (argv, digest) of each line of LINES, run in process in the directory.

    The directory must hold what write_files wrote and nothing that a
    previous run left.  COLUMNS is set to 80 meanwhile, so that argparse
    wraps its usage text the same way on any terminal.
    """
    from ngostrings.cli import run

    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(directory)
    os.environ["COLUMNS"] = "80"
    try:
        for argv in LINES:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = run(argv)
            yield argv, digest(status, out.getvalue(), err.getvalue())
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def digest(status, out, err):
    """sha256 hex digest of a run's (status, stdout, stderr)."""
    return hashlib.sha256(json.dumps([status, out, err]).encode("utf-8")).hexdigest()


def read_digests():
    """{command line: digest} of digests.txt, in its order."""
    pairs = (line.split("  ", 1) for line in DIGESTS_PATH.read_text(encoding="utf-8").splitlines())
    return {key: digest for digest, key in pairs}


def line_key(argv):
    """The command line as it is written in digests.txt."""
    return shlex.join(argv)
