"""Benchmark of the ngostrings command line.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, runs its set-up three times
(the median is ``setup_s``), then repeats passes over its op list for about
S seconds.  Every op is a fresh ``python -m ngostrings`` process and every
output is checked.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``; with ``--trace 1`` the passes alternate between
untraced and traced ops and the metrics are the per-layer ones of
layers.py.  All scratch files live under ``.bench_work`` in the checkout and
are removed on exit.  The program is run from ``src/`` of the checkout; the
benchmark fails with exit status 2 where there is none.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import harness
import layers
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# every op, set-up included, must end by then, so a run ends well within 180 s
HARD_LIMIT_S = 150.0


def end_to_end(setup_s, ops, samples, peak_rss, runner):
    # the latency percentile is over the fixed op mix, which is the same for every seed
    fixed = [s for op, s in zip(ops, samples) if not op.seeded]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": harness.sum_of_medians(samples, "wall"), "unit": "s"},
        "cpu_s": {"value": harness.sum_of_medians(samples, "cpu"), "unit": "s"},
        "op_p50_s": {"value": statistics.median(statistics.median(s.wall) for s in fixed), "unit": "s"},
        "peak_rss_mib": {"value": peak_rss, "unit": "MiB"},
        "ok_ratio": {"value": (runner.attempted - runner.failed) / runner.attempted, "unit": "ratio"},
    }


def run_workload(name, prepare, seed, seconds, trace, work_dir):
    runner = harness.Runner(ROOT, work_dir, time.monotonic() + HARD_LIMIT_S)
    setup_s, prepared = harness.set_up(prepare, runner, seed)
    samples, peak_rss, traced = harness.timed_passes(prepared, runner, seconds, trace)
    plain = samples["plain"]
    walls = [w for s in plain for w in s.wall]
    # the highest percentile with at least ten samples beyond it
    pct = max(50, 100 * (len(walls) - 10) // len(walls))
    tail = statistics.quantiles(walls, n=100)[pct - 1] if len(walls) > 1 else walls[0]
    print("workload=%s seed=%d trace=%d" % (name, seed, trace))
    print(
        "untraced: %d passes of %d ops, %d op samples, pooled op p50 %.4f s, p%d %.4f s, "
        "raw wall_s %.4f, speed %.3f"
        % (len(plain[0].wall), len(plain), len(walls), statistics.median(walls), pct, tail,
           harness.sum_of_medians(plain, "raw_wall"), runner.speed())
    )
    if trace:
        overhead = harness.sum_of_medians(samples["traced"], "wall") / harness.sum_of_medians(plain, "wall")
        print("traced: %d passes" % len(traced))
        metrics = layers.layer_metrics(traced, overhead)
    else:
        metrics = end_to_end(setup_s, prepared.ops, plain, peak_rss, runner)
    for failure in runner.failures:
        print("failed op: %s" % failure, file=sys.stderr)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ngostrings", "cli.py")):
        print("error: no ngostrings sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    with harness.work_area(ROOT, "run-") as work_dir:
        prepare = WORKLOADS[args.workload]
        result = run_workload(args.workload, prepare, args.seed, args.seconds, args.trace, work_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
