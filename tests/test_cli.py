import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from math import factorial
from pathlib import Path

import pytest

from ngostrings import cli, graphs, hypertoric, matroid
from ngostrings.cli import CACHE_FORMAT, EMPTY_CACHE, run
from ngostrings.graphs import (
    MultiGraph,
    VertexPartition,
    dump_graph,
    spectral_dual_graph,
    spectral_edge_count,
)
from ngostrings.intlinalg import MAX_DENSE_ENTRIES, IntMatrix
from ngostrings.partitions import Partition, partitions_of, set_partitions
from ngostrings.strings import string_table, table_report

from tutte_timings import INPUTS as TIMING_INPUTS

from conftest import (
    bench_workloads,
    contract_counting_loops,
    json_text_reference,
    seed_string_rank,
    tutte_reference,
)


@pytest.fixture
def capture(capsys):
    def invoke(*argv):
        status = run(list(argv))
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    return invoke


def no_edge_list(graph):
    raise AssertionError("listed the edges one by one")


def all_leaves_are_strings(obj):
    if isinstance(obj, dict):
        return all(all_leaves_are_strings(v) for v in obj.values())
    if isinstance(obj, list):
        return all(all_leaves_are_strings(v) for v in obj)
    return isinstance(obj, (str, bool))


class TestStringsAndReport:
    def test_report_rank_four(self, capture):
        status, out, _ = capture("report", "--n", "4")
        assert status == 0
        assert out == table_report(4)
        assert out.strip().split("\n")[3].split() == ["2", "1", "1", "0", "1", "3"]

    def test_strings_gcd_invariance_byte_level(self, capture):
        s1, out1, _ = capture("strings", "--n", "4", "--d", "6")
        s2, out2, _ = capture("strings", "--n", "4", "--d", "2")
        assert s1 == s2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_negative_rank_is_an_error(self, capture, monkeypatch, json_flag):
        # rank 121 for 1,1,1 at n/gcd = 3 makes 3,1,1,1 negative at n = 6, gcd 2
        seed_string_rank(monkeypatch, ((1, 3),), 121)
        status, out, err = capture("strings", "--n", "6", "--d", "2", *json_flag)
        assert (status, out) == (1, "")
        assert err.startswith("error: negative rank for partition 3,1,1,1 at n=6, gcd=2")

    def test_strings_json_integers_as_strings(self, capture):
        status, out, _ = capture("strings", "--n", "6", "--d", "3", "--json")
        assert status == 0
        payload = json.loads(out)
        assert all_leaves_are_strings(payload)
        ranks = {entry["partition"]: entry["rank"] for entry in payload["ranks"]}
        assert ranks["2,2,2"] == "0"
        assert payload["rank_weighted_contributions"] == ["2,2,2"]

    def test_report_json(self, capture):
        status, out, _ = capture("report", "--n", "2", "--json")
        payload = json.loads(out)
        assert [row["gcd"] for row in payload["rows"]] == ["0", "1"]
        for n in range(2, 15):
            status, out, _ = capture("report", "--n", str(n), "--json")
            assert status == 0
            for row in json.loads(out)["rows"]:
                ranks = string_table(n, int(row["gcd"])).ranks
                assert row["ranks"] == [{"partition": str(p), "rank": str(r)} for p, r in ranks.items()]

    def test_requires_n(self, capture):
        status, _, _ = capture("strings", "--d", "2")
        assert status == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("strings", "--n", "1000", "--d", "10"),
            ("report", "--n", "500"),
            ("partition", "--n", "1000"),
            ("partition", "--n", "1000", "--d", "10"),
            ("strings", "--n", str(10**9), "--d", "2"),
            # past sys.maxsize, which no islice bound may exceed
            ("partition", "--n", "99999999999999999999"),
            ("strings", "--n", "99999999999999999999", "--d", "1"),
            ("report", "--n", "99999999999999999999"),
        ],
    )
    def test_too_many_partitions(self, capture, argv):
        # refused from the partition count p(n) before any enumeration
        status, out, err = capture(*argv)
        assert status == 1
        assert out == ""
        assert err.startswith("error: ") and "partitions" in err


class TestGraphCommands:
    def test_graph_statistics(self, capture):
        status, out, _ = capture("graph", "--partition", "2,1,1", "--genus", "2")
        assert status == 0
        assert out == "r=3 s=10 b1=8\n"

    def test_graph_statistics_build_no_graph(self, capture, monkeypatch):
        # --json lists the edges, so its refusals are the ones to keep
        refusals = {
            genus: capture("graph", "--partition", "1,1", "--genus", genus, "--json") for genus in ("500001", "1")
        }
        # the spectral dual graph is one run per pair of parts: no edge list is built
        monkeypatch.setattr(graphs.MultiGraph, "edges", property(no_edge_list))
        assert capture("graph", "--partition", "1,1", "--genus", "500000") == (0, "r=2 s=999998 b1=999997\n", "")
        assert capture("graph", "--partition", "3", "--genus", "5") == (0, "r=1 s=0 b1=0\n", "")
        for genus, (status, out, err) in refusals.items():
            assert (status, out) == (1, "")
            assert capture("graph", "--partition", "1,1", "--genus", genus) == (1, "", err)

    def test_graph_dot(self, capture):
        status, out, _ = capture("graph", "--partition", "1,1", "--genus", "2", "--dot")
        assert status == 0
        assert out.startswith("graph G {")
        assert out.count("0 -- 1") == 2

    @pytest.mark.parametrize("directed", [False, True])
    def test_graph_dot_prints_the_graph_it_built(self, capture, monkeypatch, directed):
        # the spectral dual graph's one run, formatted once: no edge list
        monkeypatch.setattr(graphs.MultiGraph, "edges", property(no_edge_list))
        argv = ["graph", "--partition", "1,1", "--genus", "2000", "--dot"] + (["--directed"] if directed else [])
        status, out, _ = capture(*argv)
        assert status == 0
        assert out.count("0 -> 1" if directed else "0 -- 1") == 3998

    def test_graph_emit_round_trip(self, capture, tmp_path):
        status, out, _ = capture("graph", "--partition", "1,1", "--genus", "2", "--emit")
        assert status == 0
        path = tmp_path / "g.json"
        path.write_text(out)
        status2, out2, _ = capture("graph", "--quiver", str(path))
        assert status2 == 0
        assert out2 == "r=2 s=2 b1=1\n"

    def test_graph_domain_error(self, capture):
        status, _, err = capture("graph", "--partition", "2,1", "--genus", "1")
        assert status == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"format": "graph/1", "vertices": 2, "edges": [[0]]}',
            '{"format": "graph/1", "vertices": 2, "edges": 5}',
            '{"format": "graph/1", "vertices": 1e400, "edges": []}',
            '{"format": "graph/1", "vertices": 2, "edges": [[0, null]]}',
            '{"format": "graph/1", "vertices": 2, "edges": [[0, 1, 1]]}',
            '{"format": "graph/1", "vertices": true, "edges": []}',
            '{"format": "graph/1", "vertices": 2}',
            '[1, 2]',
        ],
    )
    def test_malformed_graph_file(self, capture, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        status, out, err = capture("graph", "--quiver", str(path))
        assert status == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, graph_file",
        [
            (["tutte", "--quiver", "DEEP"], True),
            (["graph", "--quiver", "DEEP", "--emit"], True),
        ],
    )
    def test_deeply_nested_json(self, capture, tmp_path, argv, graph_file):
        # the decoder gives up on this with RecursionError, not JSONDecodeError
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        status, out, err = capture(*[{"DEEP": str(deep)}.get(a, a) for a in argv])
        reason = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
        assert (status, out, err) == (1, "", "error: not a graph file: %s\n" % reason)

    @pytest.mark.parametrize("command", ["tutte", "matroid", "strata", "gale"])
    def test_huge_vertex_count(self, capture, tmp_path, command):
        path = tmp_path / "huge.json"
        path.write_text('{"format": "graph/1", "vertices": 1000000000, "edges": [[0, 1], [1, 2]]}')
        status, out, err = capture(command, "--quiver", str(path))
        assert status == 1
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "--dot", "--quiver", "HUGE"],
            ["graph", "--dot", "--directed", "--quiver", "HUGE"],
            ["graph", "--partition", "2,1,1", "--genus", "1000000"],
            ["tutte", "--partition", "2,1,1", "--genus", "1000000"],
        ],
    )
    def test_graph_over_size_limit(self, capture, tmp_path, argv):
        path = tmp_path / "huge.json"
        path.write_text('{"format": "graph/1", "vertices": 1000000000, "edges": [[0, 1], [1, 2]]}')
        start = time.perf_counter()
        status, out, err = capture(*[str(path) if a == "HUGE" else a for a in argv])
        assert time.perf_counter() - start < 1.0
        assert status == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["graph", "gale", "tutte", "matroid", "matroid-homology", "strata"])
    def test_graph_file_over_size_limit(self, capture, monkeypatch, tmp_path, command):
        # 999 999 vertices and two loops, one past MAX_GRAPH_SIZE: refused
        # before the graph is built, as a spectral dual graph of that size is
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"format": "graph/1", "vertices": 999999, "edges": [[0, 0], [0, 0]]}))

        def no_graph(*args):
            raise AssertionError("built the graph")

        with monkeypatch.context() as patched:
            patched.setattr(graphs.MultiGraph, "__init__", no_graph)
            extra = ["--emit"] if command == "graph" else []
            assert capture(command, "--quiver", str(path), *extra) == (
                1,
                "",
                "error: the graph file has 999999 vertices and 2 edges; the limit is 1000000 in all\n",
            )
        if command == "graph":
            # one vertex fewer is at the limit
            path.write_text(path.read_text().replace("999999", "999998"))
            emitted = dump_graph(MultiGraph(999998, [(0, 0), (0, 0)]))
            assert capture("graph", "--quiver", str(path), "--emit") == (0, emitted, "")

    def test_graph_needs_source(self, capture):
        status, _, err = capture("graph")
        assert status == 1
        assert "provide either" in err

    def test_unknown_subcommand_usage_error(self, capture):
        status, _, _ = capture("frobnicate")
        assert status == 2


class TestGale:
    def test_triangle_from_file(self, capture, tmp_path):
        path = tmp_path / "triangle.json"
        path.write_text(dump_graph(MultiGraph(3, [(0, 1), (1, 2), (2, 0)])))
        status, out, _ = capture("gale", "--quiver", str(path))
        assert status == 0
        assert "A =" in out and "B =" in out
        assert "exact: ok" in out
        assert "i=2: z1*w1 - z2*w2" in out

    def test_json_mode(self, capture):
        status, out, _ = capture("gale", "--partition", "1,1", "--genus", "2", "--json")
        payload = json.loads(out)
        assert payload["A"] == [["1", "1"]]
        assert payload["B"] == [["1"], ["-1"]]
        assert payload["exact"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["gale", "--partition", "2,1,1", "--genus", "20000"],
            ["gale", "--quiver", "PATH"],
        ],
    )
    def test_over_dense_size_limit(self, capture, tmp_path, monkeypatch, argv):
        if "PATH" in argv:
            path = tmp_path / "path.json"
            edges = ", ".join("[%d, %d]" % (v, v + 1) for v in range(299999))
            path.write_text('{"format": "graph/1", "vertices": 300000, "edges": [%s]}' % edges)
            argv = [str(path) if a == "PATH" else a for a in argv]

        # refused before any dense matrix is allocated: every builder raises
        def refuse(*args, **kwargs):
            raise AssertionError("a dense matrix was built before the refusal")

        monkeypatch.setattr(IntMatrix, "__init__", refuse)
        monkeypatch.setattr(IntMatrix, "zeros", classmethod(refuse))
        status, out, err = capture(*argv)
        assert status == 1
        assert out == ""
        assert err.startswith("error: ") and "dense entries" in err
        assert "Traceback" not in err

    def test_homology_quiver_at_the_ground_set_cap(self, capture, monkeypatch, tmp_path):
        # the n-cycle has n edges; its matroid complex is n points
        for n in (16, 17):
            (tmp_path / ("c%d.json" % n)).write_text(dump_graph(MultiGraph(n, [(v, (v + 1) % n) for v in range(n)])))
        status, out, err = capture("matroid-homology", "--quiver", str(tmp_path / "c16.json"))
        assert (status, err) == (0, "")
        assert out == "degree -1: 0\ndegree 0: 15\ntop degree: 0\nspheres: 15\nwedge: ok\n"

        def no_bases(self):
            raise AssertionError("listed the bases")

        monkeypatch.setattr(matroid.CographicMatroid, "bases", no_bases)
        for json_flag in ([], ["--json"]):
            assert capture("matroid-homology", "--quiver", str(tmp_path / "c17.json"), *json_flag) == (
                1,
                "",
                "error: ground set has 17 elements; the homology oracle is capped at 16\n",
            )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["gale", "--partition", "1,1", "--genus", "400000"],
                "the Gale dual of a 1x799998 matrix needs 639996800004 dense entries; the limit is 1000000",
            ),
            (
                ["gale", "--partition", "2,1,1", "--genus", "100000"],
                "the boundary matrix of 3 vertices and 999990 edges has 1999980 dense entries; the limit is 1000000",
            ),
            (
                ["gale", "--partition", "1,1", "--genus", "600000"],
                "the spectral dual graph of 1,1 at genus 600000 has 2 vertices and 1199998 edges; "
                "the limit is 1000000 in all",
            ),
            (["gale", "--partition", "3", "--genus", "2"], "boundary matrix needs at least 2 vertices"),
            (["gale", "--partition", "1,1", "--genus", "1"], "genus must be at least 2, got 1"),
            (
                ["matroid-homology", "--partition", "1,1", "--genus", "400000"],
                "ground set has 799998 elements; the homology oracle is capped at 16",
            ),
            (
                ["matroid-homology", "--partition", "1,1,1", "--genus", "5"],
                "ground set has 24 elements; the homology oracle is capped at 16",
            ),
            # past MAX_F_VECTOR_RANK too: the graph's size is checked first, as on --quiver
            (
                ["matroid", "--partition", "1,1", "--genus", "500001"],
                "the spectral dual graph of 1,1 at genus 500001 has 2 vertices and 1000000 edges; "
                "the limit is 1000000 in all",
            ),
        ],
    )
    def test_partition_refused_before_the_graph_is_built(self, capture, monkeypatch, argv, message):
        # at most the runs of the graph are built, never its edge list
        monkeypatch.setattr(graphs.MultiGraph, "edges", property(no_edge_list))
        for json_flag in ([], ["--json"]):
            assert capture(*argv, *json_flag) == (1, "", "error: %s\n" % message)

    def test_largest_spectral_input_within_dense_limit(self, capture):
        # genus 101 is the last genus of 2,1,1 whose A and B, s^2 entries, fit MAX_DENSE_ENTRIES
        edges = {g: spectral_edge_count(Partition((2, 1, 1)), g) for g in (101, 102)}
        assert edges[101] ** 2 <= MAX_DENSE_ENTRIES < edges[102] ** 2
        status, out, _ = capture("gale", "--partition", "2,1,1", "--genus", "101")
        assert status == 0
        assert "\nexact: ok\n" in out


# the benchmark's ops on fixed inputs, whose stdout digests it records once and never re-records
BENCH = bench_workloads()


class TestRecordedDigests:
    @pytest.mark.parametrize("label", sorted(BENCH.FIXED_OPS))
    def test_fixed_op_matches_recorded_digest(self, capture, label):
        status, out, _ = capture(*BENCH.FIXED_OPS[label])
        assert status == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == BENCH.DIGESTS[label]


class TestTwoSpellings:
    """--partition P --genus G and --quiver of its `graph --emit` file are one graph, one path."""

    @pytest.mark.parametrize(
        "partition, genus",
        [(str(p), genus) for genus in (2, 3) for n in range(1, 6) for p in partitions_of(n)],
    )
    def test_same_status_and_bytes(self, capture, tmp_path, partition, genus):
        # genus 2 in text, genus 3 in --json, as the golden corpus runs them
        spectral = ["--partition", partition, "--genus", str(genus)]
        tail = ["--json"] if genus == 3 else []
        status, emitted, _ = capture("graph", *spectral, "--emit")
        assert status == 0
        path = tmp_path / "g.json"
        path.write_text(emitted)
        commands = ["graph", "gale", "tutte", "matroid"]
        if spectral_edge_count(Partition.from_string(partition), genus) <= 16:
            commands.append("matroid-homology")
        for command in commands:
            assert capture(command, "--quiver", str(path), *tail) == capture(command, *spectral, *tail), command


class TestTutteCommand:
    def test_polynomial_and_eval(self, capture):
        status, out, _ = capture("tutte", "--partition", "1,1", "--genus", "2", "--eval", "1", "1")
        assert status == 0
        assert out == "T = x + y\nT(1,1) = 2\n"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_eval_past_digit_limit_is_refused(self, capture, json_flag):
        # T(3,3) at genus 100000 has about 120 000 digits; refused from a
        # bound on its terms, before anything is evaluated or printed
        start = time.perf_counter()
        status, out, err = capture("tutte", "--partition", "1,1", "--genus", "100000", "--eval", "3", "3", *json_flag)
        assert time.perf_counter() - start < 1.0
        assert (status, out) == (1, "")
        assert err.startswith("error: T(3,3) may have up to ")
        assert err.endswith("decimal digits; the limit is %d\n" % cli.MAX_EVAL_DIGITS)

    def test_eval_below_digit_limit_is_exact(self, capture):
        status, out, _ = capture("tutte", "--partition", "1,1", "--genus", "3000", "--eval", "2", "2")
        assert status == 0
        assert out.endswith("\nT(2,2) = %d\n" % 2**5998)

    def test_json(self, capture):
        status, out, _ = capture("tutte", "--partition", "1,1", "--genus", "2", "--json")
        payload = json.loads(out)
        assert payload["terms"] == [["1", "0", "1"], ["0", "1", "1"]]

    def test_matroid_command(self, capture):
        status, out, _ = capture("matroid", "--partition", "1,1", "--genus", "3")
        assert status == 0
        assert "f: 1, 4, 6, 4" in out
        assert "h: 1, 1, 1, 1" in out
        assert "top_betti: 1" in out

    @pytest.mark.parametrize("command", ["tutte", "matroid"])
    def test_quiver_refused_before_work(self, tmp_path, command):
        # seeded r24, the first input of tests/tutte_timings.py past MAX_TUTTE_WORK
        path = tmp_path / "r24.json"
        path.write_text(dump_graph(MultiGraph(*TIMING_INPUTS["seeded r24"]())))
        start = time.perf_counter()
        status, out, err = run_process([command, "--quiver", str(path)], tmp_path)
        assert time.perf_counter() - start < 1.0
        assert (status, out) == (1, "")
        assert err.startswith("error: the Tutte polynomial of a graph with 24 vertices and 68 edges needs about 2^")
        assert err.count("\n") == 1

    def test_emitted_spectral_graph_as_quiver(self, capture, tmp_path):
        # the spectral graph of 1^12 at genus 2 read back as a quiver: a
        # block whose frontier sweep is past MAX_TUTTE_WORK, answered by the
        # twin-class formula as by the partition engine
        partition = ",".join(["1"] * 12)
        _, emitted, _ = capture("graph", "--partition", partition, "--genus", "2", "--emit")
        path = tmp_path / "g.json"
        path.write_text(emitted)
        status, out, err = capture("tutte", "--quiver", str(path))
        assert (status, out, err) == capture("tutte", "--partition", partition, "--genus", "2")
        assert status == 0

    def test_matroid_homology_command(self, capture):
        status, out, _ = capture("matroid-homology", "--partition", "1,1,1", "--genus", "2")
        assert status == 0
        assert "degree 3: 2" in out
        assert "spheres: 2" in out
        assert "wedge: ok" in out

    @pytest.mark.parametrize(
        "argv, answer",
        [
            (["tutte", "--partition", ",".join(["1"] * 16), "--genus", "2", "--eval", "1", "0"],
             "T(1,0) = %d\n" % factorial(15)),
            (["tutte", "--partition", "13,12,11,10,9,8,7,6,5,4,3,2,1", "--genus", "2"], None),
            (["matroid", "--partition", "13,12,11,10,9,8,7,6,5,4,3,2,1", "--genus", "2"], None),
            (["tutte", "--partition", ",".join(["1"] * 200), "--genus", "2"], None),
            (["matroid", "--partition", ",".join(["1"] * 200), "--genus", "2"], None),
            (["matroid", "--partition", "2,1,1", "--genus", "10000"], None),
        ],
    )
    def test_answer_or_quick_refusal(self, capture, argv, answer):
        # partition inputs that deletion-contraction did not finish: each one
        # answers, or is refused before any work
        start = time.perf_counter()
        status, out, err = capture(*argv)
        if answer is not None:
            assert (status, err) == (0, "")
            assert out.endswith(answer)
            return
        assert time.perf_counter() - start < 1.0
        assert status == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_threads_option_is_a_usage_error(self, capture):
        status, _, _ = capture("tutte", "--partition", "2,1,1", "--genus", "2", "--threads", "4")
        assert status == 2


class TestStrataAndDims:
    def test_strata_table(self, capture):
        status, out, _ = capture("strata", "--partition", "1,1,1", "--genus", "2")
        assert status == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6  # header + Bell(3)
        assert lines[1].split()[0] == "0,1,2"
        assert lines[-1].split() == ["0|1|2", "6", "4", "10", "8", "4", "2", "0"]

    # stdout sha256 of strata tables and JSON, pinned byte for byte
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["--partition", "2,1,1,1", "--genus", "3", "--json"],
                "cdc031ec784199315b5f4063f693a862711a1e4721611caaefbda03187e7e149",
            ),
            (
                ["--partition", "1,1,1,1,1,1,1", "--genus", "2", "--json"],
                "0efcc0e63f9aad20d38e93138c5c7f8dda9204ae1461d4dfb0e8a9b4cbe251e1",
            ),
            (["--quiver", "K4"], "2257fa6467859c69d0df2a97a430fe03eb5964ac7ef69e759d495997ce5c3cb7"),
            (["--quiver", "K4", "--json"], "84c51af5b49afb5ac8db80e7b9a7395edf87daf07a82ceed5d388303e1ae11ff"),
        ],
    )
    def test_strata_matches_pinned_digest(self, capture, tmp_path, argv, digest):
        graph = tmp_path / "k4.json"
        graph.write_text(dump_graph(MultiGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])))
        status, out, _ = capture("strata", *[str(graph) if a == "K4" else a for a in argv])
        assert status == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    @pytest.mark.parametrize("extra", [(), ("--json",)])
    def test_strata_past_graph_size_limit(self, capture, extra):
        # 1,1 at genus 500 001 has 1 000 000 edges, past MAX_GRAPH_SIZE, which
        # the partition path never meets
        status, out, err = capture("strata", "--partition", "1,1", "--genus", "500001", *extra)
        assert (status, err) == (0, "")
        if extra:
            rows = [[row[key] for key in ("blocks", "s", "b1", "deleted_loops")] for row in json.loads(out)["strata"]]
        else:
            rows = [[cells[0], cells[1], cells[2], cells[7]] for cells in map(str.split, out.splitlines()[1:])]
        assert rows == [["0,1", "0", "0", "1000000"], ["0|1", "1000000", "999999", "0"]]

    def test_strata_partition_builds_no_graph(self, capture, monkeypatch):
        argv = ("strata", "--partition", "2,1,1,1", "--genus", "3")
        expected = capture(*argv)

        def no_graph(*args, **kwargs):
            raise AssertionError("strata --partition built a graph")

        # both constructors: of an edge list and of runs
        monkeypatch.setattr(graphs.MultiGraph, "__init__", no_graph)
        monkeypatch.setattr(graphs.MultiGraph, "_of_runs", classmethod(no_graph))
        assert capture(*argv) == expected
        with pytest.raises(AssertionError):
            spectral_dual_graph(Partition((2, 1, 1, 1)), 3)

    @pytest.mark.parametrize(
        "partition, genus, message",
        [
            ("1,1", "1", "genus must be at least 2, got 1"),
            (
                ",".join(["1"] * 12),
                "2",
                "stratum enumeration is capped at MAX_STRATA_VERTICES = 11 vertices (Bell growth); got 12",
            ),
        ],
    )
    def test_strata_partition_refusals(self, capture, monkeypatch, partition, genus, message):
        # refused before any vertex partition is visited
        monkeypatch.setattr(hypertoric, "set_partitions", None)
        assert capture("strata", "--partition", partition, "--genus", genus) == (1, "", "error: %s\n" % message)

    def test_strata_past_the_cap_refused_in_bounded_memory(self):
        # 12 parts, Bell(12) vertex partitions: refused before any work, so a
        # fresh process under a 1 GiB address-space limit exits at once
        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        argv = [sys.executable, "-m", "ngostrings", "strata", "--partition", "2" + ",1" * 11, "--genus", "2"]
        start = time.perf_counter()
        done = subprocess.run(
            argv,
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=SRC),
            preexec_fn=limit_address_space,
        )
        assert time.perf_counter() - start < 5
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: stratum enumeration is capped at MAX_STRATA_VERTICES = 11 vertices")

    def test_local_model(self, capture):
        status, out, _ = capture("local-model", "--partition", "2", "--genus", "2")
        assert status == 0
        assert "d: 2" in out and "c: 17" in out and "dim_M: 10" in out

    def test_dims(self, capture):
        status, out, _ = capture("dims", "--partition", "1,1", "--genus", "2")
        assert status == 0
        assert "codim_S: 1" in out and "delta: 1" in out and "psi: -7" in out

    def test_huge_genus_needs_no_edge_list(self, capture):
        gm1 = 10**12 - 1
        status, out, _ = capture("dims", "--partition", "2,1,1", "--genus", str(gm1 + 1))
        assert status == 0
        assert "dim_A: %d\n" % (16 * gm1 + 1) in out
        assert "codim_S: %d\n" % (10 * gm1 - 2) in out
        assert "delta: %d\n" % (10 * gm1 - 2) in out
        status, out, _ = capture("local-model", "--partition", "2,1,1", "--genus", str(gm1 + 1))
        assert status == 0
        assert "s: %d\nb1: %d\nd: %d\nc: %d\n" % (10 * gm1, 10 * gm1 - 2, 5 * gm1 + 1, 44 * gm1 + 3) in out
        assert "dim_X: %d\n" % (20 * gm1 - 2) in out

    def test_partition_listing(self, capture):
        status, out, _ = capture("partition", "--n", "4", "--d", "2")
        assert status == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("4")
        assert lines[1].startswith("2,2")


# every command that takes --cache, on a graph file and on a partition;
# "{graph}" stands for the path of the graph file
CACHED_COMMANDS = {
    "tutte --quiver": ("tutte", "--quiver", "{graph}", "--eval", "1", "0"),
    "matroid --quiver": ("matroid", "--quiver", "{graph}"),
    "strata --quiver": ("strata", "--quiver", "{graph}"),
    "strata --partition": ("strata", "--partition", "2,1,1", "--genus", "2"),
    "tutte --partition": ("tutte", "--partition", "2,1,1", "--genus", "2", "--eval", "1", "0"),
    "matroid --partition": ("matroid", "--partition", "2,1,1", "--genus", "2"),
}
# tutte and matroid create a missing --cache file; strata accepts the option and leaves the path alone
CREATES_FILE = {label for label in CACHED_COMMANDS if not label.startswith("strata")}
CACHED_GRAPH = MultiGraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (2, 2)])
K4 = MultiGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def poisoned_k4_cache():
    """A cache file that maps every key the keyed Tutte recursion met on K4 and its contractions to T = 999."""
    memo = {}
    for blocks in set_partitions(range(4)):
        contracted, _ = contract_counting_loops(K4, VertexPartition(blocks))
        tutte_reference(contracted.vertex_count, contracted.pair_multiplicities(), memo)
    entries = {key.decode("ascii"): [[0, 0, "999"]] for key in memo}
    return json.dumps({"format": CACHE_FORMAT, "entries": entries})


@pytest.fixture
def cached_run(capture, tmp_path):
    """Run a CACHED_COMMANDS entry on a graph file, with --cache PATH when a path is given."""

    def invoke(label, path=None, graph=CACHED_GRAPH, *extra):
        graph_file = tmp_path / "graph.json"
        graph_file.write_text(dump_graph(graph))
        argv = [arg.format(graph=graph_file) for arg in CACHED_COMMANDS[label]] + list(extra)
        return capture(*argv, *(["--cache", str(path)] if path else []))

    return invoke


def file_state(path):
    stat = path.stat()
    return path.read_bytes(), stat.st_mtime_ns, stat.st_ino


class TestCache:
    """No run reads a --cache file; tutte and matroid create a missing one as the empty cache."""

    @pytest.mark.parametrize("json_flag", [False, True])
    @pytest.mark.parametrize("label", sorted(CACHED_COMMANDS))
    def test_poisoned_file_changes_nothing(self, cached_run, tmp_path, label, json_flag):
        # a K4 cache file with every entry poisoned to T = 999: the cold
        # output, nothing on stderr, and the file as it was
        path = tmp_path / "poisoned.json"
        path.write_text(poisoned_k4_cache())
        extra = ["--json"] if json_flag else []
        cold = cached_run(label, None, K4, *extra)
        assert cold[0] == 0 and cold[2] == ""
        before = file_state(path)
        assert cached_run(label, path, K4, *extra) == cold
        assert file_state(path) == before

    @pytest.mark.parametrize("label", sorted(CACHED_COMMANDS))
    def test_missing_file(self, cached_run, tmp_path, label):
        path = tmp_path / "cache.json"
        assert cached_run(label, path) == cached_run(label)
        if label in CREATES_FILE:
            assert path.read_text() == EMPTY_CACHE == '{"entries":{},"format":"ngostrings-cache/1"}\n'
        else:
            assert not path.exists()
        # and nothing else is written
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json", "graph.json"][label not in CREATES_FILE :]

    @pytest.mark.parametrize("label", sorted(CACHED_COMMANDS))
    @pytest.mark.parametrize(
        "text",
        [
            EMPTY_CACHE,
            "",
            "{{{{",
            "[" * 100000,
            json.dumps({"format": "ngostrings-cache/0", "entries": {}}),
            json.dumps({"format": CACHE_FORMAT, "entries": {"(1, (0,))": [[0, 0]]}}),
        ],
    )
    def test_existing_file_left_alone(self, cached_run, tmp_path, label, text):
        # valid or not, a file is neither read nor replaced, and draws no warning
        path = tmp_path / "cache.json"
        path.write_text(text)
        before = file_state(path)
        assert cached_run(label, path) == cached_run(label)
        assert file_state(path) == before

    def test_failed_write_warns(self, capture, tmp_path):
        # a path whose directory is missing: the answer as without --cache, and one warning
        argv = ("tutte", "--partition", "2,1,1", "--genus", "2")
        _, cold, _ = capture(*argv)
        path = tmp_path / "missing" / "cache.json"
        status, out, err = capture(*argv, "--cache", str(path))
        assert (status, out) == (0, cold)
        assert err.startswith("warning: could not write cache %s (" % path)
        assert list(tmp_path.iterdir()) == []

    def test_environment_names_no_cache(self, cached_run, tmp_path, monkeypatch):
        # a poisoned K4 cache, and a missing path, named only by the
        # environment variable: no run reads the one or creates the other
        path, missing = tmp_path / "poisoned.json", tmp_path / "missing.json"
        path.write_text(poisoned_k4_cache())
        before = file_state(path)
        cold = {label: cached_run(label, None, K4) for label in CACHED_COMMANDS}
        for name in (path, missing):
            monkeypatch.setenv("NGO_STRINGS_CACHE", str(name))
            assert {label: cached_run(label, None, K4) for label in CACHED_COMMANDS} == cold
        assert file_state(path) == before
        assert not missing.exists()


class TestTextDetails:
    def test_negative_degree(self, capture):
        status, out, _ = capture("strings", "--n", "4", "--d", "-2")
        assert status == 0
        assert out.startswith("n=4 gcd=2\n")

    def test_multiplier_note_line(self, capture):
        _, out, _ = capture("strings", "--n", "6", "--d", "3")
        assert out.strip().endswith("# contributions weighted by local-system rank > 1: 2,2,2")
        _, out4, _ = capture("strings", "--n", "4", "--d", "2")
        assert "#" not in out4


class TestSparseQuivers:
    """Cycles and prisms, sparse blocks of the frontier sweep, answered by a fresh process."""

    def run_fresh(self, tmp_path, graph, *extra):
        path = tmp_path / "graph.json"
        path.write_text(dump_graph(graph))
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        argv = [sys.executable, "-m", "ngostrings", "tutte", "--quiver", str(path), "--eval", "1", "1", *extra]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=30, env=env)
        assert (done.returncode, done.stderr) == (0, "")
        return done.stdout

    @pytest.mark.parametrize("n", [60, 200])
    def test_cycle(self, tmp_path, n):
        out = self.run_fresh(tmp_path, MultiGraph(n, [(v, (v + 1) % n) for v in range(n)]))
        powers = " + ".join(["x^%d" % i for i in range(n - 1, 1, -1)] + ["x", "y"])
        assert out == "T = %s\nT(1,1) = %d\n" % (powers, n)

    def test_prism_14(self, tmp_path):
        m = 7
        edges = [(v, (v + 1) % m) for v in range(m)] + [(m + v, m + (v + 1) % m) for v in range(m)]
        out = self.run_fresh(tmp_path, MultiGraph(2 * m, edges + [(v, m + v) for v in range(m)]))
        # Kirchhoff's count of the 7-prism's spanning trees
        assert out.startswith("T = x^13 + ") and out.endswith("\nT(1,1) = 35287\n")

    @pytest.mark.parametrize("shape", ["path", "tree"])
    def test_long_tree(self, tmp_path, shape):
        # 20 000 blocks of one edge each, split in one pass
        n = 20000
        rng = random.Random(n)
        parent = [v - 1 if shape == "path" else rng.randrange(v) for v in range(1, n)]
        out = self.run_fresh(tmp_path, MultiGraph(n, [(u, v) for v, u in enumerate(parent, 1)]))
        assert out == "T = x^%d\nT(1,1) = 1\n" % (n - 1)

    def test_long_cycle_refused_quickly(self, tmp_path):
        # one block of 20 000 vertices: planned in linear steps, then refused
        n = 20000
        path = tmp_path / "graph.json"
        path.write_text(dump_graph(MultiGraph(n, [(v, (v + 1) % n) for v in range(n)])))
        start = time.perf_counter()
        status, out, err = run_process(["tutte", "--quiver", str(path)], tmp_path)
        assert time.perf_counter() - start < 2.0
        assert (status, out) == (1, "")
        assert err.startswith("error: the Tutte polynomial of a graph with 20000 vertices and 20000 edges")

    def test_cycle_of_bundles(self, tmp_path):
        # C_50 with every edge a bundle of 20.  Summed over which m bundles
        # an edge set leaves empty, T = (y-1) g^n + ((g + x - 1)^n - g^n) / (x - 1),
        # with g = 1 + y + ... + y^(k-1) per nonempty bundle
        n, k = 50, 20
        graph = MultiGraph(n, [(v, (v + 1) % n) for v in range(n) for _ in range(k)])
        payload = json.loads(self.run_fresh(tmp_path, graph, "--json"))
        assert payload["value"] == str(n * k ** (n - 1))
        terms = [(int(i), int(j), int(c)) for i, j, c in payload["terms"]]
        for x, y in [(1, 0), (2, 2), (3, 2), (2, 3)]:
            g = (y**k - 1) // (y - 1) if y != 1 else k
            spread = n * g ** (n - 1) if x == 1 else ((g + x - 1) ** n - g**n) // (x - 1)
            assert sum(c * x**i * y**j for i, j, c in terms) == (y - 1) * g**n + spread


class TestParser:
    @pytest.mark.parametrize(
        "argv", [["--help"]] + [[name, flag] for name in cli.SUBCOMMANDS for flag in ("--help", "--bogus")]
    )
    def test_same_output_as_the_full_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        full = (exc.value.code, *capsys.readouterr())
        status = run(argv)
        assert (status, *capsys.readouterr()) == full

    def test_well_formed_line_builds_no_parser(self, capture, monkeypatch):
        built = []
        build = cli.build_parser

        def spy():
            built.append(True)
            return build()

        monkeypatch.setattr(cli, "build_parser", spy)
        # a well-formed line builds no parser; one argparse must read builds it
        fast = capture("dims", "--partition", "1,1", "--genus", "2")
        assert fast[0] == 0 and built == []
        assert capture("dims", "--partition=1,1", "--genus", "2") == fast
        assert [capture(*argv)[0] for argv in (["--help"], ["frobnicate"], [])] == [0, 2, 2]
        assert built == [True] * 4


def fast_reader_corpus():
    """Command lines for every subcommand and option, well-formed or not."""
    values = {int: ["5", "-1", "+3", " 4", "1_0", "\u0663", "x", "", "2.5"], None: ["2,1,1", "-1", "", "x", " 3", "--json"]}
    good = {int: "3", None: "1,1"}
    corpus = [[], ["--help"], ["frobnicate"], ["strings", "--n"]]
    for name, (_, _, options) in cli.SUBCOMMANDS.items():
        flags = [(flag, kw) for flag, kw in options if kw.get("action") != "store_true"]
        switches = [flag for flag, kw in options if kw.get("action") == "store_true"] + ["--json"]
        # flag -> [flag, value...] of each required option
        required = {flag: [flag] + [good[kw.get("type")]] * kw.get("nargs", 1) for flag, kw in flags if kw.get("required")}
        base = [token for group in required.values() for token in group]
        corpus.append([name] + base)
        corpus.append([name] + base + switches)
        corpus.append([name] + switches[::-1] + [token for group in list(required.values())[::-1] for token in group])
        for extra in (["-h"], ["--help"], ["--"], ["stray"], ["--json", "--json"], ["--js"], ["--json=1"]):
            corpus.append([name] + base + extra)
        for flag, kw in flags:
            nargs = kw.get("nargs", 1)
            rest = [token for other, group in required.items() if other != flag for token in group]
            for value in values[kw.get("type")]:
                corpus.append([name] + rest + [flag] + [value] * nargs)
                if nargs == 1:
                    corpus.append([name] + rest + ["%s=%s" % (flag, value)])
                else:
                    corpus.append([name] + rest + [flag, good[kw.get("type")], value])
            one = [flag] + [good[kw.get("type")]] * nargs
            corpus.append([name] + rest + one + one)  # repeated
            corpus.append([name] + rest + [flag[:4]] + one[1:])  # abbreviated
            corpus.append([name] + rest + [flag])  # no value
            corpus.append([name] + rest)  # missing
            if nargs == 2:
                for pair in (["2", "-1"], ["2"], ["2", "3", "4"], ["-1", "2"], ["1", "0"]):
                    corpus.append([name] + base + [flag] + pair)
    return corpus


class TestFastReader:
    def test_same_namespace_as_argparse(self, capsys):
        read = 0
        for argv in fast_reader_corpus():
            args = cli._fast_args(argv)
            if args is None:
                continue
            read += 1
            try:
                expected = cli.build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail("argparse refuses a line the fast reader took: %r\n%s" % (argv, capsys.readouterr().err))
            assert vars(args) == vars(expected), argv
        assert read >= 100

    @pytest.mark.parametrize(
        "argv",
        [
            ["dims", "--partition=2,1", "--genus", "2"],
            ["dims", "--part", "2,1", "--genus", "2"],
            ["dims", "--partition", "2,1", "--partition", "2,1", "--genus", "2"],
            ["dims", "--partition", "2,1"],
            ["dims", "--partition", "2,1", "--genus", "-3"],
            ["dims", "--partition", "2,1", "--genus", "x"],
            ["dims", "--partition", "2,1", "--genus", "2", "-h"],
            ["dims", "--", "--partition", "2,1", "--genus", "2"],
            ["dims", "--partition", "2,1", "--genus", "2", "stray"],
            ["tutte", "--partition", "2,1", "--genus", "2", "--eval", "2", "-1"],
            ["tutte", "--partition", "2,1", "--genus", "2", "--eval", "2"],
            ["strings", "--n", "4"],
            ["frobnicate"],
            [],
        ],
    )
    def test_leaves_every_other_line_to_argparse(self, argv):
        assert cli._fast_args(argv) is None

    def test_reads_values_as_argparse_converts_them(self):
        args = cli._fast_args(["tutte", "--eval", "+3", " 4", "--genus", "1_0", "--partition", " 2,1", "--json"])
        assert vars(args) == {
            "command": "tutte",
            "func": cli.cmd_tutte,
            "partition": " 2,1",
            "genus": 10,
            "quiver": None,
            "cache": None,
            "eval": [3, 4],
            "json": True,
        }


SOURCE = ["--partition", "2,1,1", "--genus", "2"]


class TestJsonWriter:
    @pytest.mark.parametrize(
        "argv",
        [
            ["strings", "--n", "6", "--d", "2"],
            ["report", "--n", "5"],
            ["partition", "--n", "5"],
            ["partition", "--n", "6", "--d", "3"],
            ["graph"] + SOURCE,
            ["gale"] + SOURCE,
            ["tutte", "--eval", "2", "-1"] + SOURCE,
            ["matroid"] + SOURCE,
            ["matroid-homology", "--partition", "1,1,1", "--genus", "2"],
            ["strata"] + SOURCE,
            ["local-model"] + SOURCE,
            ["dims"] + SOURCE,
        ],
    )
    def test_same_bytes_as_reference_on_every_subcommand(self, capture, monkeypatch, argv):
        payloads = []
        write = cli._print_json

        def spy(payload):
            payloads.append(payload)
            write(payload)

        monkeypatch.setattr(cli, "_print_json", spy)
        status, out, _ = capture(*argv, "--json")
        assert status == 0
        assert out == json_text_reference(payloads[0]) + "\n"

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {},
            {"a": [], "b": {}, "c": [[], {}, [[]]]},
            [1, True, 2, False],
            [True, False],
            None,
            {"none": None, "list": [None, "x", 1]},
            [-7, 10**40, -(10**40), 0],
            (1, (2, 3), ()),
            {1: 2, True: "t", "k": (4,)},
            ["caf\u00e9 \u2603 \U0001f600", "\n\t\x00\x1f\"\\/"],
            {"\u00e9\n": "\x7f"},
            "top",
            12,
            1.5,
        ],
    )
    def test_same_bytes_as_reference_on_edge_cases(self, capsys, payload):
        cli._print_json(payload)
        assert capsys.readouterr().out == json_text_reference(payload) + "\n"


SRC = str(Path(__file__).resolve().parents[1] / "src")


def capture_run(argv):
    """stdout of an in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(list(argv)) == 0
    return out.getvalue()


class TestStartup:
    def test_cli_import_leaves_out_heavy_stdlib_modules(self):
        # Every CLI run pays for what `import ngostrings.cli` loads. The first
        # five come in with `dataclasses` and cost about 12 ms a process;
        # `json` (about 3 ms) is imported only by the functions that use it.
        # -S keeps out the site-packages imports, which are not this package's.
        code = (
            "import sys; sys.path.insert(0, %r); import ngostrings.cli; "
            "print([m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'json') if m in sys.modules])"
        ) % SRC
        done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_package_import_loads_no_submodule(self):
        code = (
            "import sys; sys.path.insert(0, %r); import ngostrings; "
            "print([m for m in sys.modules if m.startswith('ngostrings.')])"
        ) % SRC
        done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_lazy_names_are_the_module_objects(self):
        import importlib

        import ngostrings

        assert set(ngostrings.__all__) <= set(dir(ngostrings))
        for name in ngostrings.__all__:
            module = importlib.import_module("ngostrings." + ngostrings._EXPORTS[name])
            assert getattr(ngostrings, name) is getattr(module, name)
        with pytest.raises(AttributeError):
            ngostrings.no_such_name

    @pytest.mark.parametrize(
        "name",
        [
            "certify_small",
            "SmallnessCertificate",
            "local_decomposition",
            "lawrence_dims",
            "euler_characteristic",
            "rational_rank",
            "smith_normal_form",
            "SmithDecomposition",
            "TutteCache",
            "top_betti",
            "partition_count",
            "cache_load",
            "cache_store",
            "KEY_SEARCH_NODES",
        ],
    )
    def test_removed_names_stay_removed(self, name):
        import importlib
        import pkgutil

        import ngostrings

        assert name not in ngostrings.__all__
        with pytest.raises(AttributeError):
            getattr(ngostrings, name)
        # nor does any module keep it; importing __main__ would run the command line
        for info in pkgutil.iter_modules(ngostrings.__path__):
            if info.name != "__main__":
                assert not hasattr(importlib.import_module("ngostrings." + info.name), name), info.name

    @pytest.mark.parametrize(
        "argv, left_out",
        [
            (
                ["strings", "--n", "6", "--d", "2"],
                {"argparse", *("ngostrings." + m for m in ("graphs", "matroid", "homology", "hypertoric", "intlinalg"))},
            ),
            (
                ["tutte", "--partition", "2,1,1", "--genus", "2", "--eval", "1", "0"],
                {"argparse", "ngostrings.homology", "ngostrings.hypertoric"},
            ),
            (["strata", "--partition", "2,1,1", "--genus", "2"], {"argparse", "ngostrings.matroid"}),
        ],
    )
    def test_well_formed_run_imports_only_what_it_uses(self, argv, left_out):
        # -X importtime names every module the run imports, on stderr
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run(
            [sys.executable, "-S", "-X", "importtime", "-m", "ngostrings", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == capture_run(argv)
        imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
        assert "ngostrings.cli" in imported
        assert not imported & left_out


class EventStream(io.StringIO):
    """A std stream that logs each flush to a shared event list; ``fail`` is raised by flush."""

    def __init__(self, name, events, fail=None):
        super().__init__()
        self.name, self.events, self.fail = name, events, fail

    def flush(self):
        self.events.append(("flush", self.name))
        if self.fail is not None:
            raise self.fail


class Exited(Exception):
    """Stands in for os._exit, which never returns."""


@pytest.fixture
def exit_log(monkeypatch):
    """main()'s exit steps as events; returns invoke(argv, stdout_fail=None) -> events, SystemExit code or None."""
    events = []

    def exit_now(status):
        events.append(("_exit", status))
        raise Exited

    monkeypatch.setattr(os, "_exit", exit_now)
    monkeypatch.setattr("atexit._run_exitfuncs", lambda: events.append(("atexit",)))
    # a coverage tool or debugger running the tests must not change the path under test
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    if hasattr(sys, "monitoring"):
        get_tool = sys.monitoring.get_tool
        running = {i for i in range(6) if get_tool(i) is not None}
        monkeypatch.setattr(sys.monitoring, "get_tool", lambda i: None if i in running else get_tool(i))

    def invoke(argv, stdout_fail=None):
        monkeypatch.setattr(sys, "argv", ["ngostrings", *argv])
        monkeypatch.setattr(sys, "stdout", EventStream("stdout", events, stdout_fail))
        monkeypatch.setattr(sys, "stderr", EventStream("stderr", events))
        code = None
        try:
            cli.main()
        except Exited:
            pass
        except SystemExit as exc:
            code = exc.code
        return events, code

    return invoke


FLUSH_BOTH = [("flush", "stdout"), ("flush", "stderr")]


class TestExitSequence:
    @pytest.mark.parametrize(
        "argv, status",
        [(["partition", "--n", "3"], 0), (["partition", "--n", "99"], 1), (["partition", "--n"], 2)],
    )
    def test_flush_then_atexit_then_exit(self, exit_log, argv, status):
        # flushed again after the handlers, which may print
        events, code = exit_log(argv)
        assert code is None
        assert events == FLUSH_BOTH + [("atexit",)] + FLUSH_BOTH + [("_exit", status)]

    def test_profiler_takes_sys_exit(self, exit_log):
        sys.setprofile(lambda frame, event, arg: None)
        try:
            events, code = exit_log(["partition", "--n", "99"])
        finally:
            sys.setprofile(None)
        assert (events, code) == ([], 1)

    def test_tracer_takes_sys_exit(self, exit_log, monkeypatch):
        monkeypatch.setattr(sys, "gettrace", lambda: print)
        assert exit_log(["partition", "--n", "3"]) == ([], 0)

    @pytest.mark.skipif(not hasattr(sys, "monitoring"), reason="sys.monitoring is new in Python 3.12")
    def test_monitoring_tool_takes_sys_exit(self, exit_log):
        # cProfile registers this way from Python 3.12 on, leaving sys.getprofile() None
        tool = next(i for i in range(6) if sys.monitoring.get_tool(i) is None)
        sys.monitoring.use_tool_id(tool, "test profiler")
        try:
            events, code = exit_log(["partition", "--n", "3"])
        finally:
            sys.monitoring.free_tool_id(tool)
        assert (events, code) == ([], 0)

    def test_failed_flush_is_one_error_line(self, exit_log):
        # stdout is dropped after the failure: the handlers still run, and nothing flushes it again
        events, code = exit_log(["partition", "--n", "3"], stdout_fail=BrokenPipeError(32, "Broken pipe"))
        assert code is None
        assert events == [("flush", "stdout"), ("flush", "stderr"), ("atexit",), ("flush", "stderr"), ("_exit", 1)]
        assert sys.stderr.getvalue() == "error: [Errno 32] Broken pipe\n"


def process_env():
    """The benchmark's environment: this checkout's sources, PYTHONHASHSEED=0 and no other PYTHON* variable.

    So stdout is block-buffered on a pipe, as it is for a benchmark op.
    COLUMNS=80 makes argparse wrap as it does in process.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0", COLUMNS="80")
    return env


def run_python(args, cwd=None, stdout=subprocess.PIPE, **kwargs):
    """The finished ``python ARGS`` in process_env, its captured output as text."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=process_env(),
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
        **kwargs,
    )


def run_process(argv, cwd):
    """(status, stdout, stderr) of ``python -m ngostrings ARGV``."""
    done = run_python(["-m", "ngostrings", *argv], cwd)
    return done.returncode, done.stdout, done.stderr


# one success per subcommand
PROCESS_SUCCESSES = {
    "strings": ["--n", "4", "--d", "6"],
    "report": ["--n", "4"],
    "partition": ["--n", "4", "--d", "2"],
    "graph": ["--partition", "2,1,1", "--genus", "2"],
    "gale": ["--partition", "1,1,1", "--genus", "2"],
    "tutte": ["--partition", "2,2", "--genus", "2", "--eval", "1", "0"],
    "matroid": ["--partition", "1,1", "--genus", "3"],
    "matroid-homology": ["--partition", "1,1,1", "--genus", "2"],
    "strata": ["--partition", "1,1,1", "--genus", "2"],
    "local-model": ["--partition", "2,2", "--genus", "2"],
    "dims": ["--partition", "1,1", "--genus", "2"],
}


class TestProcessIdentity:
    """A fresh process prints and exits exactly as cli.run does in process."""

    @pytest.mark.parametrize(
        "argv, status",
        [([name, *ok], 0) for name, ok in PROCESS_SUCCESSES.items()]
        + [
            (["tutte", "--partition", "2,1"], 1),
            (["gale", "--bogus"], 2),
            (["strata", "--help"], 0),
        ],
    )
    def test_command_line(self, capture, monkeypatch, tmp_path, argv, status):
        monkeypatch.setenv("COLUMNS", "80")
        expected = capture(*argv)
        assert expected[0] == status
        assert run_process(argv, tmp_path) == expected

    def test_every_subcommand_has_a_success(self):
        assert list(PROCESS_SUCCESSES) == list(cli.SUBCOMMANDS)

    def test_cache_file_complete_when_the_process_ends(self, capture, tmp_path):
        quiver = tmp_path / "q.graph"
        quiver.write_text(dump_graph(spectral_dual_graph(Partition((2, 1, 1)), 2)))
        argv = ["tutte", "--quiver", str(quiver), "--cache"]
        expected = capture(*argv, str(tmp_path / "cold.json"))
        assert run_process([*argv, str(tmp_path / "fresh.json")], tmp_path) == expected
        assert (tmp_path / "fresh.json").read_text() == (tmp_path / "cold.json").read_text() == EMPTY_CACHE


def process_on(stdout, argv, **kwargs):
    """(status, stderr) of ``python -m ngostrings ARGV`` writing to the file descriptor or file ``stdout``."""
    done = run_python(["-m", "ngostrings", *argv], stdout=stdout, **kwargs)
    return done.returncode, done.stderr


class TestUnwritableStdout:
    """Output that stdout cannot take is reported as one error line, with status 1."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            # the output fits the buffer, so only the final flush fails
            (["partition", "--n", "6"], (1, "error: [Errno 32] Broken pipe\n")),
            # the output overflows the buffer, so a write inside the command fails
            (["report", "--n", "20"], (1, "error: [Errno 32] Broken pipe\n")),
        ],
    )
    def test_closed_pipe(self, argv, expected):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            assert process_on(write_end, argv) == expected
        finally:
            os.close(write_end)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["partition", "--n", "6"], (1, "error: [Errno 28] No space left on device\n")),
            (["report", "--n", "20"], (1, "error: [Errno 28] No space left on device\n")),
        ],
    )
    def test_full_disk(self, argv, expected):
        with open("/dev/full", "wb") as full:
            assert process_on(full, argv) == expected

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["partition", "--n", "6"], (0, "")),
            (["partition", "--n", "99"], (1, "error: n=99 has more than 50000 partitions; refusing to enumerate them\n")),
        ],
    )
    def test_no_stdout_descriptor(self, argv, expected):
        # with no descriptor 1 at start-up, sys.stdout is None and print writes nothing
        assert process_on(subprocess.DEVNULL, argv, preexec_fn=lambda: os.close(1)) == expected


class TestObservers:
    def test_atexit_handler_output_appears(self, tmp_path):
        code = (
            "import atexit, sys; atexit.register(print, 'handler ran'); "
            "sys.argv = ['ngostrings', 'partition', '--n', '3']; from ngostrings.cli import main; main()"
        )
        done = run_python(["-c", code], tmp_path)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == capture_run(["partition", "--n", "3"]) + "handler ran\n"

    def test_cprofile_prints_its_table(self, tmp_path):
        argv = ["partition", "--n", "6"]
        done = run_python(["-m", "cProfile", "-m", "ngostrings", *argv], tmp_path)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith(capture_run(argv))
        assert " function calls " in done.stdout and "Ordered by: " in done.stdout

    def test_inspect_flag_reaches_the_prompt(self, tmp_path):
        argv = ["partition", "--n", "3"]
        done = run_python(["-i", "-m", "ngostrings", *argv], tmp_path, stdin=subprocess.DEVNULL)
        assert done.stdout == capture_run(argv)
        assert done.stderr.endswith(">>> \n")
