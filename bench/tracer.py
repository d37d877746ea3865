"""Run one ngostrings command line with every layer boundary timed.

Usage: python tracer.py STATS_PATH ARG...

Runs ``ngostrings.cli.run(ARG...)`` after wrapping every public function of
the package at every module binding of it (``ngostrings.matroid.canonical_key``
as well as ``ngostrings.graphs.canonical_key``), plus the class methods in
METHODS.  Spans live on one stack, so a span's self time is its duration
minus the durations of the spans it opened.  On exit the per-span calls,
self time and total time (outermost activations only), and the Tutte memo
hit and miss counts, are written to STATS_PATH as JSON.  Names that do not
exist are skipped, so the tracer keeps working when a later version of the
package removes them.
"""

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time

METHODS = [
    ("ngostrings.matroid", "TuttePolynomial", "__mul__"),
    ("ngostrings.matroid", "TutteCache", "get"),
    ("ngostrings.matroid", "CographicMatroid", "is_independent"),
    ("ngostrings.graphs", "MultiGraph", "is_connected"),
]
CACHE_GET = "matroid.TutteCache.get"

clock = time.perf_counter
spans = {}  # name -> [calls, self_s, total_s]
active = {}  # name -> number of open activations
stack = []  # [name, start, time covered by child spans]
counters = {"matroid.tutte_cache.hits": 0, "matroid.tutte_cache.misses": 0}


def _wrap(fn, name):
    record = spans.setdefault(name, [0, 0.0, 0.0])
    count_hits = name == CACHE_GET

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = [name, clock(), 0.0]
        stack.append(frame)
        active[name] = active.get(name, 0) + 1
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = clock() - frame[1]
            stack.pop()
            active[name] -= 1
            record[0] += 1
            record[1] += elapsed - frame[2]
            if not active[name]:
                record[2] += elapsed
            if stack:
                stack[-1][2] += elapsed
        if count_hits:
            counters["matroid.tutte_cache.misses" if result is None else "matroid.tutte_cache.hits"] += 1
        return result

    return traced


def _span_name(module_name, qualname):
    return module_name.split(".", 1)[-1] + "." + qualname


def install():
    package = importlib.import_module("ngostrings")
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            modules.append(importlib.import_module("ngostrings." + info.name))
    wrappers = {}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if not obj.__module__.startswith("ngostrings") or obj.__name__.startswith("_"):
                continue
            if id(obj) not in wrappers:
                wrappers[id(obj)] = _wrap(obj, _span_name(obj.__module__, obj.__qualname__))
            setattr(module, attr, wrappers[id(obj)])
    for module_name, class_name, method in METHODS:
        cls = getattr(sys.modules.get(module_name), class_name, None)
        fn = getattr(cls, method, None) if cls is not None else None
        if inspect.isfunction(fn):
            setattr(cls, method, _wrap(fn, _span_name(module_name, class_name + "." + method)))


def main(argv):
    stats_path, args = argv[0], argv[1:]
    install()
    cli = sys.modules["ngostrings.cli"]
    status = 1
    try:
        status = cli.run(args)
    finally:
        sys.stdout.flush()
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans, "counters": counters}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
