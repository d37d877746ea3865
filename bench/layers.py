"""Per-layer metrics, read from the tracer's statistics.

Each metric names one span (or counter) the tracer records.  A span that a
pass never entered, or that no longer exists, reads as zero.  Values are
summed over the ops of one traced pass; the reported value is the median
over traced passes.  README.md says which end-to-end metric each one should
move, and on which workload.
"""

import statistics

# metric name -> (unit, span name, field) or (unit, None, counter name)
SPAN_METRICS = {
    "partitions.grouping_types.calls": ("count", "partitions.grouping_types", "calls"),
    "partitions.grouping_types.self_s": ("s", "partitions.grouping_types", "self_s"),
    "partitions.partitions_of.self_s": ("s", "partitions.partitions_of", "self_s"),
    "strings.string_table.total_s": ("s", "strings.string_table", "total_s"),
    "graphs.canonical_key.calls": ("count", "graphs.canonical_key", "calls"),
    "graphs.canonical_key.self_s": ("s", "graphs.canonical_key", "self_s"),
    "matroid.poly_mul.calls": ("count", "matroid.TuttePolynomial.__mul__", "calls"),
    "matroid.poly_mul.self_s": ("s", "matroid.TuttePolynomial.__mul__", "self_s"),
    "matroid.tutte_cache.hits": ("count", None, "matroid.tutte_cache.hits"),
    "matroid.tutte_cache.misses": ("count", None, "matroid.tutte_cache.misses"),
    "graphs.spectral_dual_graph.self_s": ("s", "graphs.spectral_dual_graph", "self_s"),
    "graphs.is_connected.calls": ("count", "graphs.MultiGraph.is_connected", "calls"),
    "graphs.contract_counting_loops.self_s": ("s", "graphs.contract_counting_loops", "self_s"),
    "hypertoric.enumerate_strata.self_s": ("s", "hypertoric.enumerate_strata", "self_s"),
    "cli.cache_load.self_s": ("s", "cli.cache_load", "self_s"),
    "cli.cache_store.self_s": ("s", "cli.cache_store", "self_s"),
    "matroid.is_independent.calls": ("count", "matroid.CographicMatroid.is_independent", "calls"),
    "matroid.f_h_vectors.self_s": ("s", "matroid.f_h_vectors", "self_s"),
    "homology.matroid_complex.self_s": ("s", "homology.matroid_complex", "self_s"),
    "homology.reduced_homology_ranks.self_s": ("s", "homology.reduced_homology_ranks", "self_s"),
    "intlinalg.smith_normal_form.calls": ("count", "intlinalg.smith_normal_form", "calls"),
    "intlinalg.smith_normal_form.self_s": ("s", "intlinalg.smith_normal_form", "self_s"),
    "intlinalg.row_hermite_form.self_s": ("s", "intlinalg.row_hermite_form", "self_s"),
    "intlinalg.sparse_rank.self_s": ("s", "intlinalg.sparse_rank", "self_s"),
}
FIELDS = {"calls": 0, "self_s": 1, "total_s": 2}
CACHE_BYTES = "cli.cache_file_bytes"
HIT_RATIO = "matroid.tutte_cache.hit_ratio"
OVERHEAD = "trace.overhead_ratio"
UNITS = {name: spec[0] for name, spec in SPAN_METRICS.items()}
UNITS.update({CACHE_BYTES: "bytes", HIT_RATIO: "ratio", OVERHEAD: "ratio"})


def _pass_values(op_stats, cache_file_bytes):
    values = {}
    for name, (_, span, key) in SPAN_METRICS.items():
        if span is None:
            values[name] = sum(s["counters"].get(key, 0) for s in op_stats)
        else:
            values[name] = sum(s["spans"].get(span, [0, 0.0, 0.0])[FIELDS[key]] for s in op_stats)
    values[CACHE_BYTES] = cache_file_bytes
    lookups = values["matroid.tutte_cache.hits"] + values["matroid.tutte_cache.misses"]
    values[HIT_RATIO] = values["matroid.tutte_cache.hits"] / lookups if lookups else 0.0
    return values


def layer_metrics(traced_passes, overhead_ratio):
    """Metrics from a list of traced passes, each a (op_stats, cache_file_bytes) pair."""
    per_pass = [_pass_values(op_stats, size) for op_stats, size in traced_passes]
    metrics = {}
    for name, unit in UNITS.items():
        if name == OVERHEAD:
            value = overhead_ratio
        else:
            value = statistics.median(values[name] for values in per_pass)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
