"""Op execution and measurement for the ngostrings benchmark.

One client, closed loop: every op is a fresh interpreter running the CLI,
started only after the previous op has ended.  Each op runs in its own
empty working directory with a sanitised environment, and its CPU time and
peak RSS come from ``os.wait4`` on that one child.  The peak RSS a child
reports includes the RSS of the process that started it (the kernel carries
the high-water mark across exec), so this module keeps the benchmark process
small: it imports nothing heavy and holds no op output beyond the check.

Times are reported at a reference machine speed.  On a shared host the
speed of the same pure-Python loop drifts by 10-50% over tens of seconds,
which no amount of repetition inside one run averages out: the medians of
CLI op times over 10-s windows spread by 20% (quartile distance over the
median), and by 4-9% once divided by the calibration time of the same
window.  So before each op the benchmark times a fixed calibration loop,
and each time it reports is the measured time multiplied by CAL_REF_S over
the median of the last CAL_WINDOW calibration times.  The raw wall time
and the last factor are printed beside the result.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

OP_TIMEOUT_S = 30.0
SETUP_REPEATS = 3
CAL_ITERATIONS = 200_000
# median over 10-s windows of the calibration time on the 2-vCPU x86-64 VM
# the benchmark was defined on; the windows ranged from 0.0138 to 0.0218 s
CAL_REF_S = 0.0157
CAL_WINDOW = 9


@dataclass
class Op:
    """One CLI invocation and the check its stdout must pass.

    ``label`` names the op independently of seeded arguments; it keys the
    recorded digests.  ``check`` returns None when the output is right and
    a short reason otherwise.  ``seeded`` marks an op on a seeded random
    graph, whose cost changes with the seed.
    """

    label: str
    argv: list
    check: Callable[[bytes], Optional[str]]
    seeded: bool = False


@dataclass
class OpResult:
    wall_s: float
    cpu_s: float
    rss_mib: float
    returncode: Optional[int]
    stdout: bytes
    stderr: bytes
    timed_out: bool
    stats: Optional[dict] = None
    speed: float = 1.0


@dataclass
class Prepared:
    """What a workload's set-up hands to the timed phase."""

    ops: list
    before_pass: Callable[[], None] = lambda: None
    cache_file: Optional[str] = None


@dataclass
class Samples:
    """One op's times over the passes, at the reference speed, and its raw wall times."""

    wall: list = field(default_factory=list)
    cpu: list = field(default_factory=list)
    raw_wall: list = field(default_factory=list)


class Runner:
    """Starts ops against the source tree of one checkout."""

    def __init__(self, root, work_dir, deadline):
        self.work_dir = work_dir
        self.deadline = deadline
        self.tracer = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")
        self.env = child_env(root)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.calibrations = deque(maxlen=CAL_WINDOW)
        self.calibration_s = 0.0

    def calibrate(self):
        """Time a fixed pure-Python loop in this process and remember the time."""
        start = time.perf_counter()
        x = 0
        for i in range(CAL_ITERATIONS):
            x += i * i % 7
        elapsed = time.perf_counter() - start
        self.calibrations.append(elapsed)
        self.calibration_s += elapsed

    def speed(self):
        """Factor that turns a time measured now into one at the reference speed."""
        return CAL_REF_S / statistics.median(self.calibrations)

    def run(self, argv, traced=False):
        """Run one op; a traced op runs under the tracer and carries its statistics."""
        op_dir = tempfile.mkdtemp(prefix="op-", dir=self.work_dir)
        try:
            stats_path = os.path.join(op_dir, "stats.json")
            if traced:
                cmd = [sys.executable, self.tracer, stats_path] + list(argv)
            else:
                cmd = [sys.executable, "-m", "ngostrings"] + list(argv)
            self.calibrate()
            timeout = max(0.1, min(OP_TIMEOUT_S, self.deadline - time.monotonic()))
            result = _spawn(cmd, op_dir, self.env, timeout)
            result.speed = self.speed()
            if traced:
                result.stats = _read_stats(stats_path)
            return result
        finally:
            shutil.rmtree(op_dir, ignore_errors=True)

    def run_checked(self, op, traced=False):
        """Run an op, check its exit status and output, and count the outcome."""
        result = self.run(op.argv, traced)
        self.attempted += 1
        if result.timed_out:
            reason = "timed out after %.0f s" % result.wall_s
        elif result.returncode != 0:
            stderr = result.stderr.decode("utf-8", "replace")
            reason = "exit %s: %s" % (result.returncode, stderr[-300:])
        else:
            try:
                reason = op.check(result.stdout)
            except (TypeError, ValueError, KeyError, IndexError, AttributeError) as exc:
                reason = "unreadable output (%s: %s)" % (type(exc).__name__, exc)
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append("%s: %s" % (op.label, reason))
        return result


def child_env(root):
    """Environment for ops: the checkout's sources, a fixed hash seed, no user overrides.

    Dropping every PYTHON* and NGO_STRINGS_* variable keeps a user's
    settings (for example a cache file in NGO_STRINGS_CACHE) from changing
    what an op does; the fixed hash seed makes traced counts repeat exactly.
    """
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("PYTHON") and not k.startswith("NGO_STRINGS_")
    }
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(cmd, cwd, env, timeout):
    """Run cmd to completion or until the timeout kills it; resources are the child's own."""
    out_path = os.path.join(cwd, "stdout")
    err_path = os.path.join(cwd, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
    # a pidfd lets the wait time out without a reaper thread, and wait4 then
    # reaps this child alone with its own rusage
    pidfd = os.pidfd_open(proc.pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        timed_out = not poller.poll(timeout * 1000.0)
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as handle:
        stdout = handle.read()
    with open(err_path, "rb") as handle:
        stderr = handle.read()
    return OpResult(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024.0,
        returncode=None if timed_out else proc.returncode,
        stdout=stdout,
        stderr=stderr,
        timed_out=timed_out,
    )


@contextmanager
def work_area(root, prefix):
    """A scratch directory under .bench_work in the checkout, removed with its contents on exit."""
    parent = os.path.join(root, ".bench_work")
    os.makedirs(parent, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=parent)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(parent)
        except OSError:
            pass


def set_up(prepare, runner, seed):
    """Run the workload's set-up SETUP_REPEATS times, each in a fresh directory.

    Returns the median set-up time, at the reference speed, and the last
    set-up's result, which the timed phase uses.
    """
    times = []
    prepared = None
    for i in range(SETUP_REPEATS):
        inputs = os.path.join(runner.work_dir, "setup-%d" % i)
        os.mkdir(inputs)
        runner.calibrate()
        start = time.perf_counter()
        calibrated_before = runner.calibration_s
        prepared = prepare(seed, inputs, runner)
        elapsed = time.perf_counter() - start - (runner.calibration_s - calibrated_before)
        times.append(elapsed * runner.speed())
    return statistics.median(times), prepared


def timed_passes(prepared, runner, seconds, trace):
    """Repeat whole passes over the op list for about ``seconds`` seconds.

    A new pass starts only if one more pass of its kind fits in the time
    left, and at least one pass of each kind runs.  With ``trace`` the
    passes alternate between untraced and traced.  Returns per-op samples
    for each kind, the peak RSS seen, and for each traced pass the tracer's
    statistics of every op with the cache file's size at the end of the
    pass.
    """
    kinds = ["plain", "traced"] if trace else ["plain"]
    samples = {kind: [Samples() for _ in prepared.ops] for kind in kinds}
    last_pass = {kind: 0.0 for kind in kinds}
    traced_stats = []
    peak_rss = 0.0
    start = time.monotonic()
    n = 0
    while True:
        kind = kinds[n % len(kinds)]
        if n >= len(kinds) and time.monotonic() - start + last_pass[kind] > seconds:
            break
        pass_start = time.monotonic()
        prepared.before_pass()
        pass_stats = []
        for i, op in enumerate(prepared.ops):
            result = runner.run_checked(op, traced=kind == "traced")
            samples[kind][i].wall.append(result.wall_s * result.speed)
            samples[kind][i].cpu.append(result.cpu_s * result.speed)
            samples[kind][i].raw_wall.append(result.wall_s)
            peak_rss = max(peak_rss, result.rss_mib)
            pass_stats.append(result.stats)
        if kind == "traced":
            size = 0
            if prepared.cache_file and os.path.exists(prepared.cache_file):
                size = os.path.getsize(prepared.cache_file)
            traced_stats.append((pass_stats, size))
        last_pass[kind] = time.monotonic() - pass_start
        n += 1
    return samples, peak_rss, traced_stats


def _read_stats(path):
    """The tracer's statistics for one op; an op that died before writing them counts nothing."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {"spans": {}, "counters": {}}


def sum_of_medians(op_samples, attr):
    """Pass time of a typical pass: the per-op medians, summed over the op list."""
    return sum(statistics.median(getattr(s, attr)) for s in op_samples)
