"""Self-test of the benchmark harness.

Usage (from the root of a checkout): python3 bench/selftest.py

Runs a tiny version of every workload (three of its ops, one short pass),
untraced and traced, and checks that each result has the keys of the
contract, that every op passed, and that the metrics are exactly those of
BENCHMARK.json with their units.  It also checks that a wrong output counts
as a failure, and that the benchmark exits with an error, printing no
result, in a directory that holds only the benchmark.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import harness
import run
from harness import Op
from workloads import WORKLOADS

ROOT = run.ROOT


def tiny(prepare):
    def prepare_tiny(seed, inputs, runner):
        prepared = prepare(seed, inputs, runner)
        return dataclasses.replace(prepared, ops=prepared.ops[:2] + prepared.ops[-1:])

    return prepare_tiny


def check_result(result, units):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append("ops failed: %r of %r" % (result.get("failed"), result.get("attempted")))
    metrics = result.get("metrics", {})
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != units:
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        wrong = sorted(n for n in set(got) & set(units) if got[n] != units[n])
        problems.append("metrics: missing %s, unexpected %s, wrong unit %s" % (missing, extra, wrong))
    for name, m in metrics.items():
        if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            problems.append("%s has no numeric value" % name)
    return problems


def check_failure_counting(work_dir):
    runner = harness.Runner(ROOT, work_dir, time.monotonic() + 60)
    runner.run_checked(Op("probe", ["partition", "--n", "3"], lambda stdout: "wrong on purpose"))
    runner.run_checked(Op("usage error", ["partition"], lambda stdout: None))
    if (runner.attempted, runner.failed) != (2, 2):
        return ["a wrong output or exit status was not counted as a failure"]
    return []


def check_without_sources(work_dir):
    bare = os.path.join(work_dir, "bare")
    os.mkdir(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    argv = ["bench/run.py", "--workload", "ranks", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable] + argv, cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["without the program: exit %d, output %r" % (proc.returncode, proc.stdout[-200:])]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    with harness.work_area(ROOT, "selftest-") as work_dir:
        for workload in spec["workloads"]:
            name = workload["name"]
            for trace in (0, 1):
                run_dir = tempfile.mkdtemp(dir=work_dir)
                result = run.run_workload(name, tiny(WORKLOADS[name]), 0, 0.0, trace, run_dir)
                found = check_result(result, units[trace])
                problems += ["%s --trace %d: %s" % (name, trace, p) for p in found]
        problems += check_failure_counting(work_dir)
        problems += check_without_sources(work_dir)
    for problem in problems:
        print("FAIL %s" % problem)
    print("selftest: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
