import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from math import factorial
from pathlib import Path

import pytest

from ngostrings import cli, graphs, hypertoric
from ngostrings.cli import CACHE_FORMAT, cache_load, cache_store, run
from ngostrings.graphs import (
    Quiver,
    canonical_key,
    dump_graph,
    pairs_canonical_key,
    spectral_dual_quiver,
    spectral_edge_count,
)
from ngostrings.intlinalg import MAX_DENSE_ENTRIES, IntMatrix
from ngostrings.matroid import TuttePolynomial
from ngostrings.partitions import Partition, set_partitions
from ngostrings.strings import string_table, table_report

from conftest import (
    bench_workloads,
    cache_load_reference,
    contract_counting_loops,
    enumerate_strata_reference,
    indented_cache_text,
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
        # --json builds the graph, so its refusals are the ones to keep
        refusals = {
            genus: capture("graph", "--partition", "1,1", "--genus", genus, "--json") for genus in ("500001", "1")
        }

        def no_graph(*args):
            raise AssertionError("built the spectral dual graph")

        # the CLI imports it from graphs when it builds a graph
        monkeypatch.setattr(graphs, "spectral_dual_quiver", no_graph)
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
            (["tutte", "--quiver", "OK", "--cache", "DEEP"], False),
        ],
    )
    def test_deeply_nested_json(self, capture, tmp_path, argv, graph_file):
        # the decoder gives up on this with RecursionError, not JSONDecodeError
        deep, ok = tmp_path / "deep.json", tmp_path / "ok.json"
        deep.write_text("[" * 100000)
        ok.write_text(dump_graph(spectral_dual_quiver(Partition((2, 1, 1)), 2)))
        status, out, err = capture(*[{"DEEP": str(deep), "OK": str(ok)}.get(a, a) for a in argv])
        reason = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
        if graph_file:
            assert (status, out, err) == (1, "", "error: not a graph file: %s\n" % reason)
            return
        # an unreadable cache: a cold run, and the file replaced by a valid cache
        assert (status, out) == capture("tutte", "--quiver", str(ok))[:2]
        assert err == "warning: ignoring unreadable cache %s (%s)\n" % (deep, reason)
        assert json.loads(deep.read_text())["format"] == CACHE_FORMAT

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
        path.write_text(dump_graph(Quiver(3, [(0, 1), (1, 2), (2, 0)])))
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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["gale", "--partition", "1,1", "--genus", "400000"],
                "the Gale dual of a 1x799998 matrix needs 639997600002 dense entries; the limit is 1000000",
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
        ],
    )
    def test_partition_refused_before_the_graph_is_built(self, capture, monkeypatch, argv, message):
        def no_graph(*args):
            raise AssertionError("built the spectral dual graph")

        monkeypatch.setattr(graphs, "spectral_dual_quiver", no_graph)
        for json_flag in ([], ["--json"]):
            assert capture(*argv, *json_flag) == (1, "", "error: %s\n" % message)

    def test_largest_spectral_input_within_dense_limit(self, capture):
        # genus 100 is the last genus of 2,1,1 whose Gale dual fits MAX_DENSE_ENTRIES
        edges = {g: spectral_edge_count(Partition((2, 1, 1)), g) for g in (100, 101)}
        assert edges[100] * (2 + edges[100]) <= MAX_DENSE_ENTRIES < edges[101] * (2 + edges[101])
        status, out, _ = capture("gale", "--partition", "2,1,1", "--genus", "100")
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
        graph.write_text(dump_graph(Quiver(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])))
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

        monkeypatch.setattr(graphs, "_spectral_edges", no_graph)
        assert capture(*argv) == expected
        with pytest.raises(AssertionError):
            spectral_dual_quiver(Partition((2, 1, 1, 1)), 3)

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


class TestCache:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = {b"(2, (0, 0, 2))": TuttePolynomial({(1, 0): 1, (0, 1): 1})}
        cache_store(path, cache)
        loaded = cache_load(path)
        assert loaded == cache

    def test_missing_file_is_cold(self, tmp_path, capsys):
        cache = cache_load(str(tmp_path / "absent.json"))
        assert len(cache) == 0
        assert capsys.readouterr().err == ""

    def test_corrupt_file_warns(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{{{{")
        cache = cache_load(str(path))
        assert len(cache) == 0
        assert "warning" in capsys.readouterr().err

    def test_version_mismatch_warns(self, tmp_path, capsys):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format": "ngostrings-cache/0", "entries": {}}))
        cache = cache_load(str(path))
        assert len(cache) == 0
        assert "warning" in capsys.readouterr().err

    def test_failed_write_keeps_old_file(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "cache.json"
        cache = {b"(2, (0, 0, 2))": TuttePolynomial({(1, 0): 1, (0, 1): 1})}
        cache_store(str(path), cache)
        before = path.read_bytes()

        class FullDisk:
            """A file handle that writes part of the text, then fails as a full disk does."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[:10])
                self.handle.flush()
                raise OSError("disk full")

        # cache_store opens the temp file with the builtin open, mode "x"; a
        # module global of that name shadows it, and passes reads through
        def full_disk_open(file, mode="r", **kwargs):
            handle = open(file, mode, **kwargs)
            return FullDisk(handle) if mode == "x" else handle

        monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
        cache[b"(1, (1,))"] = TuttePolynomial({(0, 1): 1})
        cache_store(str(path), cache)
        assert path.read_bytes() == before
        assert "warning: could not write cache" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]

    def test_earlier_cache_file_still_hits(self, capture, tmp_path):
        # a file as the earlier recursion and writer left it, with a key at
        # every node.  K4 is 2-connected with no series vertex, so its key is
        # the first one the recursion computes, on K4 and on K4 with a pendant
        # edge and a loop alike: both runs hit it and add nothing
        k4 = {(u, v): 1 for u in range(4) for v in range(u + 1, 4)}
        earlier = {}
        tutte_reference(4, k4, earlier)
        top = pairs_canonical_key(4, k4)
        # K4's key as the earlier key search wrote it into cache files
        assert top == b"(4, (0, 0, 1, 0, 1, 1, 0, 1, 1, 1))"
        assert earlier.get(top) is not None
        graphs = {
            "k4": (Quiver(4, list(k4)), "x^3 + 3*x^2 + 4*x*y + 2*x + y^3 + 3*y^2 + 2*y"),
            "pendant": (
                Quiver(5, list(k4) + [(4, 0), (4, 4)]),
                "x^4*y + 3*x^3*y + 4*x^2*y^2 + 2*x^2*y + x*y^4 + 3*x*y^3 + 2*x*y^2",
            ),
        }
        for name, (quiver, poly) in graphs.items():
            graph = tmp_path / ("%s.json" % name)
            graph.write_text(dump_graph(quiver))
            warm, cold = tmp_path / ("%s-warm.json" % name), tmp_path / ("%s-cold.json" % name)
            warm.write_text(indented_cache_text(earlier))
            before = warm.read_bytes()
            args = ("tutte", "--quiver", str(graph), "--eval", "1", "1", "--cache")
            expected = (0, "T = %s\nT(1,1) = 16\n" % poly, "")
            assert capture(*args, str(warm)) == expected
            assert warm.read_bytes() == before
            assert capture(*args, str(cold)) == expected
            assert json.loads(cold.read_text())["entries"][top.decode("ascii")] == [
                [i, j, str(c)] for (i, j), c in earlier.get(top).terms()
            ]

    def test_concurrent_writers_keep_both_entries(self, tmp_path):
        # two runs load the same file, each adds a different key, and they
        # store one after the other: the second store merges the first's
        path = str(tmp_path / "cache.json")
        seeded = {FOREIGN_KEY: FOREIGN_POLY}
        cache_store(path, seeded)
        first, second = cache_load(path), cache_load(path)
        first[b"(1, (1,))"] = TuttePolynomial({(0, 1): 1})
        second[b"(1, (2,))"] = TuttePolynomial({(0, 2): 1})
        cache_store(path, first)
        cache_store(path, second)
        assert cache_load(path) == {
            FOREIGN_KEY: FOREIGN_POLY,
            b"(1, (1,))": TuttePolynomial({(0, 1): 1}),
            b"(1, (2,))": TuttePolynomial({(0, 2): 1}),
        }
        # for a key in both, the entry in memory wins
        second[FOREIGN_KEY] = TuttePolynomial.one()
        cache_store(path, second)
        assert cache_load(path)[FOREIGN_KEY] == TuttePolynomial.one()
        assert len(cache_load(path)) == 3

    def test_two_runs_same_output_and_file(self, capture, tmp_path):
        # the 14-vertex prism's top key runs out of search budget, so it is
        # computed without the memo; everything else is keyed as usual
        m = 7
        prism = [(v, (v + 1) % m) for v in range(m)] + [(m + v, m + (v + 1) % m) for v in range(m)]
        prism += [(v, m + v) for v in range(m)]
        for name, graph in (("prism", Quiver(2 * m, prism)), ("cached", CACHED_GRAPH)):
            path = tmp_path / ("%s.json" % name)
            path.write_text(dump_graph(graph))
            runs = []
            for i in range(2):
                cache = tmp_path / ("%s-%d-cache.json" % (name, i))
                runs.append((capture("tutte", "--quiver", str(path), "--cache", str(cache)), cache.read_bytes()))
            assert runs[0] == runs[1]
            assert runs[0][0][0] == 0
            assert json.loads(runs[0][1])["entries"]

    @pytest.mark.parametrize("command", ["tutte", "matroid"])
    def test_partition_runs_leave_entries(self, capture, tmp_path, command):
        path = tmp_path / "cache.json"
        cache = {b"(2, (0, 0, 2))": TuttePolynomial({(1, 0): 1, (0, 1): 1})}
        cache_store(str(path), cache)
        before = path.read_bytes()
        status, _, _ = capture(command, "--partition", "2,1,1", "--genus", "2", "--cache", str(path))
        assert status == 0
        assert path.read_bytes() == before

    def test_warm_cold_identical_output(self, capture, tmp_path):
        path = str(tmp_path / "cache.json")
        args = ("tutte", "--partition", "2,2", "--genus", "2", "--eval", "1", "0", "--cache", path)
        s1, cold, _ = capture(*args)
        s2, warm, _ = capture(*args)
        assert s1 == s2 == 0
        assert cold == warm

    def test_environment_names_no_cache(self, capture, tmp_path, monkeypatch):
        # a K4 cache with every entry poisoned to T = 999, named only by the
        # environment variable: a run without --cache neither reads nor writes it
        graph = tmp_path / "k4.json"
        graph.write_text(dump_graph(Quiver(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])))
        path = tmp_path / "poisoned.json"
        commands = [(name, "--quiver", str(graph)) for name in ("tutte", "matroid", "strata")]
        cold = [capture(*argv) for argv in commands]
        for argv in commands:
            assert capture(*argv, "--cache", str(path))[0] == 0
        entries = {key: [[0, 0, "999"]] for key in json.loads(path.read_text())["entries"]}
        path.write_text(json.dumps({"format": CACHE_FORMAT, "entries": entries}))
        # the poison bites tutte and matroid, which name the file; strata
        # reads no cache file
        for argv, (_, out, _) in zip(commands, cold):
            assert (capture(*argv, "--cache", str(path))[1] == out) == (argv[0] == "strata")
        before = path.read_bytes()
        monkeypatch.setenv("NGO_STRINGS_CACHE", str(path))
        assert [capture(*argv) for argv in commands] == cold
        assert path.read_bytes() == before


# every command that takes --cache, on a graph file and on a partition;
# "{graph}" stands for the path of CACHED_GRAPH
CACHED_COMMANDS = {
    "tutte --quiver": ("tutte", "--quiver", "{graph}", "--eval", "1", "0"),
    "matroid --quiver": ("matroid", "--quiver", "{graph}"),
    "strata --quiver": ("strata", "--quiver", "{graph}"),
    "strata --partition": ("strata", "--partition", "2,1,1", "--genus", "2"),
    "tutte --partition": ("tutte", "--partition", "2,1,1", "--genus", "2", "--eval", "1", "0"),
    "matroid --partition": ("matroid", "--partition", "2,1,1", "--genus", "2"),
}
# --partition runs of tutte and matroid take the exponential-formula engine,
# which reads and adds no memo entry; strata accepts --cache and ignores it,
# so its rows read, write and warn about nothing
ADDS_ENTRIES = {"tutte --quiver", "matroid --quiver"}
IGNORES_CACHE = {"strata --quiver", "strata --partition"}
CACHED_GRAPH = Quiver(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (2, 2)])
# a memo entry no command above reaches: the bundle of 30 parallel edges
FOREIGN_KEY = pairs_canonical_key(2, {(0, 1): 30})
FOREIGN_POLY = TuttePolynomial({(1, 0): 1, **{(0, j): 1 for j in range(1, 30)}})


@pytest.fixture
def cached_run(capture, tmp_path, monkeypatch):
    """Run a CACHED_COMMANDS entry with --cache PATH; returns (status, out, err, cache_store calls)."""
    graph = tmp_path / "graph.json"
    graph.write_text(dump_graph(CACHED_GRAPH))
    stores = []
    real_store = cli.cache_store

    def counting_store(path, cache):
        stores.append(path)
        real_store(path, cache)

    monkeypatch.setattr(cli, "cache_store", counting_store)

    def invoke(label, path):
        argv = [arg.format(graph=graph) for arg in CACHED_COMMANDS[label]]
        before = len(stores)
        status, out, err = capture(*argv, "--cache", str(path))
        return status, out, err, len(stores) - before

    return invoke


def file_state(path):
    stat = path.stat()
    return path.read_bytes(), stat.st_mtime_ns, stat.st_ino


class TestCacheStores:
    """The cache file is rewritten only when the memo grew or the file held no valid entries."""

    @pytest.mark.parametrize("label", sorted(CACHED_COMMANDS))
    def test_store_decisions(self, cached_run, tmp_path, label):
        cold = tmp_path / "cold.json"
        status, cold_out, err, stores = cached_run(label, cold)
        writes = label not in IGNORES_CACHE
        assert (status, err, stores, cold.exists()) == (0, "", int(writes), writes)
        new_entries = json.loads(cold.read_text())["entries"] if writes else {}
        assert bool(new_entries) == (label in ADDS_ENTRIES)

        path = tmp_path / "cache.json"
        seeded = {FOREIGN_KEY: FOREIGN_POLY}
        cache_store(str(path), seeded)
        old_entries = json.loads(path.read_text())["entries"]
        before = file_state(path)
        status, out, err, stores = cached_run(label, path)
        assert (status, out, err) == (0, cold_out, "")
        if label in ADDS_ENTRIES:
            assert stores == 1
            assert json.loads(path.read_text()) == {
                "format": CACHE_FORMAT,
                "entries": {**old_entries, **new_entries},
            }
        else:
            assert stores == 0
            assert file_state(path) == before

        # a second run on the same valid file adds nothing and leaves it alone
        before = file_state(path)
        assert cached_run(label, path) == (0, cold_out, "", 0)
        assert file_state(path) == before

    @pytest.mark.parametrize("label", sorted(CACHED_COMMANDS))
    @pytest.mark.parametrize(
        "text, warning",
        [
            ("{{{{", "warning: ignoring unreadable cache {path} ("),
            (
                json.dumps({"format": "ngostrings-cache/0", "entries": {}}),
                "warning: ignoring cache {path} with unsupported format\n",
            ),
            (
                json.dumps({"format": CACHE_FORMAT, "entries": {"(1, (0,))": [[0, 0]]}}),
                "warning: ignoring malformed cache {path}\n",
            ),
        ],
    )
    def test_invalid_file_is_replaced(self, cached_run, tmp_path, label, text, warning):
        cold = tmp_path / "cold.json"
        _, cold_out, _, _ = cached_run(label, cold)
        path = tmp_path / "cache.json"
        path.write_text(text)
        before = file_state(path)
        status, out, err, stores = cached_run(label, path)
        if label in IGNORES_CACHE:
            assert (status, out, err, stores) == (0, cold_out, "", 0)
            assert file_state(path) == before
            return
        assert (status, out, stores) == (0, cold_out, 1)
        assert err.startswith(warning.format(path=path))
        assert path.read_bytes() == cold.read_bytes()

    @pytest.mark.parametrize("label", sorted(CACHED_COMMANDS))
    def test_warm_cold_and_indented_file(self, cached_run, tmp_path, capsys, label):
        path = tmp_path / "cache.json"
        status, cold_out, _, _ = cached_run(label, path)
        assert status == 0
        assert cached_run(label, path)[:3] == (0, cold_out, "")

        indented = tmp_path / "indented.json"
        indented.write_text(indented_cache_text(cache_load(str(path))))
        entries = cache_load(str(path))
        assert cache_load(str(indented)) == entries
        assert cache_load_reference(str(indented)) == entries
        assert capsys.readouterr().err == ""
        before = file_state(indented)
        status, out, err, stores = cached_run(label, indented)
        assert (status, out, err) == (0, cold_out, "")
        if entries:
            assert stores == 0
            assert file_state(indented) == before

    @pytest.mark.parametrize(
        "argv",
        [
            ("strata", "--quiver", "K4"),
            ("strata", "--quiver", "K4", "--json"),
            ("strata", "--partition", "1,1,1,1", "--genus", "2"),
            ("strata", "--partition", "1,1,1,1", "--genus", "2", "--json"),
        ],
    )
    def test_strata_ignores_a_poisoned_cache(self, capture, tmp_path, argv):
        # every memo key that the Tutte-per-record strata of K4 reach, mapped
        # to T = 999: strata takes no Tutte polynomial, so it prints the cold
        # table, warns about nothing and leaves the file as it is
        k4 = Quiver(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        memo = {}
        enumerate_strata_reference(k4, cache=memo)
        path = tmp_path / "poisoned.json"
        entries = {key.decode("ascii"): [[0, 0, "999"]] for key in memo}
        path.write_text(json.dumps({"format": CACHE_FORMAT, "entries": entries}))
        # the poison bites strata computed through the memo
        poisoned = enumerate_strata_reference(k4, cache=cache_load(str(path)))
        assert {rec.multiplicity for rec in poisoned} == {1, 999}
        graph = tmp_path / "k4.json"
        graph.write_text(dump_graph(k4))
        argv = [str(graph) if a == "K4" else a for a in argv]
        status, cold_out, err = capture(*argv)
        assert (status, err) == (0, "")
        before = file_state(path)
        assert capture(*argv, "--cache", str(path)) == (0, cold_out, "")
        assert file_state(path) == before

    def test_file_is_one_compact_line(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = {FOREIGN_KEY: FOREIGN_POLY, b"(1, (0,))": TuttePolynomial.one()}
        cache_store(str(path), cache)
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"

    @pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="no C accelerator for json")
    def test_writer_takes_the_c_encoder(self, tmp_path, monkeypatch):
        # json.dump and any indent go through the pure-Python _make_iterencode
        def pure_python_encoder(*args, **kwargs):
            raise AssertionError("cache_store took the pure-Python JSON encoder")

        monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
        cache = {FOREIGN_KEY: FOREIGN_POLY}
        cache_store(str(tmp_path / "cache.json"), cache)
        assert cache_load(str(tmp_path / "cache.json")) == cache


class TestCacheDecoder:
    """cache_load decodes every file as the two-pass reference decoder does."""

    @pytest.mark.parametrize(
        "entries",
        [
            {"(2, (0, 0, 2))": [[1, 0, "1"], [1, 0, "3"], [0, 1, "1"]]},
            {"(2, (0, 0, 2))": [[1, 0, "0"], [0, 1, "2"]]},
            {"(2, (0, 0, 2))": [[0, 1, "5"], [0, 1, "0"]]},
            {"(2, (0, 0, 2))": [[0, 1, "0"], [1, 0, "1"], [0, 1, "4"]]},
            {"(2, (0, 0, 2))": [[1, 0, 2], ["0", "1", "7"], [0, 2, 2.5], [0, 3, True]]},
            {"(2, (0, 0, 2))": [], "(1, (0,))": [[0, 0, "1"]]},
            {},
            {"(2, (0, 0, 2))": [[1, 0]]},
            {"(2, (0, 0, 2))": [[1, 0, "x"]]},
            {"(2, (0, 0, 2))": [[1, 0, None]]},
            {"(2, (0, 0, 2))": [[[1], 0, "1"]]},
            {"(2, (0, 0, 2))": 7},
            {"\u00e9": [[0, 0, "1"]]},
            [["(1, (0,))", [[0, 0, "1"]]]],
        ],
    )
    def test_same_as_reference_decoder(self, tmp_path, capsys, entries):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"format": CACHE_FORMAT, "entries": entries}))

        def decoded(load):
            cache = load(str(path))
            return [(key, list(poly.coeffs.items())) for key, poly in cache.items()], capsys.readouterr().err

        assert decoded(cache_load) == decoded(cache_load_reference)


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
    """Cycles and prisms leave colour refinement one class, where an exact key takes exponential search."""

    def run_fresh(self, tmp_path, graph):
        path = tmp_path / "graph.json"
        path.write_text(dump_graph(graph))
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        argv = [sys.executable, "-m", "ngostrings", "tutte", "--quiver", str(path), "--eval", "1", "1"]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=30, env=env)
        assert (done.returncode, done.stderr) == (0, "")
        return done.stdout

    def test_cycle_60(self, tmp_path):
        out = self.run_fresh(tmp_path, Quiver(60, [(v, (v + 1) % 60) for v in range(60)]))
        powers = " + ".join(["x^%d" % i for i in range(59, 1, -1)] + ["x", "y"])
        assert out == "T = %s\nT(1,1) = 60\n" % powers

    def test_prism_14(self, tmp_path):
        m = 7
        edges = [(v, (v + 1) % m) for v in range(m)] + [(m + v, m + (v + 1) % m) for v in range(m)]
        out = self.run_fresh(tmp_path, Quiver(2 * m, edges + [(v, m + v) for v in range(m)]))
        # Kirchhoff's count of the 7-prism's spanning trees
        assert out.startswith("T = x^13 + ") and out.endswith("\nT(1,1) = 35287\n")


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

    def test_cache_file_complete_when_the_process_ends(self, capture, capsys, tmp_path):
        quiver = tmp_path / "q.graph"
        quiver.write_text(dump_graph(spectral_dual_quiver(Partition((2, 1, 1)), 2)))
        argv = ["tutte", "--quiver", str(quiver), "--cache"]
        expected = capture(*argv, str(tmp_path / "cold.json"))
        assert run_process([*argv, str(tmp_path / "fresh.json")], tmp_path) == expected
        fresh, cold = (cache_load(str(tmp_path / name)) for name in ("fresh.json", "cold.json"))
        assert capsys.readouterr().err == ""  # neither file drew a warning
        assert fresh and fresh == cold


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
