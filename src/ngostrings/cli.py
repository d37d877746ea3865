"""Command-line surface: tables, graphs, Gale duals, Tutte data, strata.

Every subcommand prints deterministic, byte-stable text; ``--json`` switches
to a structured mode in which every integer is a decimal string, so
arbitrary-precision values survive any JSON parser.  Domain errors exit 1,
usage errors exit 2.

A command line in the strict form of _fast_args (the subcommand, then exact
flags with plain values) is read without argparse, and each subcommand
imports only the modules it uses.  Every other line goes to argparse, which
alone writes usage, help and error text.

Every graph, of ``--quiver FILE`` or of ``--partition``/``--genus``, is one
MultiGraph whose edges are (source, target) pairs: ``gale`` reads the
orientations, and ``graph --dot`` draws them only with ``--directed``.
Every subcommand takes both down one path, _resolve_quiver and the library
call, but ``strata --partition``, which builds no graph (spectral_strata).

``tutte``, ``matroid`` and ``strata`` accept ``--cache PATH`` and read no
file; ``tutte`` and ``matroid`` create a missing PATH as EMPTY_CACHE.

``run`` is the in-process API: it returns the exit status and never exits.
``main``, the entry point of ``python -m ngostrings`` and of the console
script, runs it and then ends the process as soon as the output is flushed
and the ``atexit`` handlers have run, skipping interpreter teardown; under a
profiler, a tracer (through ``sys.monitoring`` too, as cProfile uses from
Python 3.12) or ``python -i`` it exits the usual way.  Output that stdout
cannot take is reported as one ``error:`` line, with exit status 1.
"""

import os
import sys

from .errors import ModelInconsistencyError, ResourceLimitError

CACHE_FORMAT = "ngostrings-cache/1"
# the whole text of a cache file that ``--cache`` creates: no run reads one
EMPTY_CACHE = '{"entries":{},"format":"%s"}\n' % CACHE_FORMAT
# tutte --eval refuses a value that may have more decimal digits than this,
# CPython's default limit of the int -> str conversion
MAX_EVAL_DIGITS = 4300


def _create_cache(path):
    """Create a missing ``--cache`` file as EMPTY_CACHE, or warn; an existing file, valid or not, stays as it is."""
    if not path:
        return
    try:
        with open(path, "x", encoding="ascii") as handle:
            handle.write(EMPTY_CACHE)
    except FileExistsError:
        pass
    except OSError as exc:
        print("warning: could not write cache %s (%s)" % (path, exc), file=sys.stderr)


def _json_text(obj, quote, newline):
    """json.dumps(obj, indent=2) with every int (not bool) written as a decimal string.

    ``newline`` is the line break plus the indent of the enclosing level.
    Strings and keys take the C string encoder ``quote``, a list of plain
    ints is written by one format call, and anything else (None, floats)
    goes to json.dumps as it is.
    """
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return '"%d"' % obj
    if isinstance(obj, str):
        return quote(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {int}:
            # one format call for the row: "%d" per entry between the separators
            items = '"' + ('",' + inner + '"').join(["%d"] * len(obj)) % tuple(obj) + '"'
        else:
            items = ("," + inner).join([_json_text(v, quote, inner) for v in obj])
        return "[" + inner + items + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ("," + inner).join(
            [quote(str(k)) + ": " + _json_text(v, quote, inner) for k, v in obj.items()]
        )
        return "{" + inner + items + newline + "}"
    import json

    return json.dumps(obj)


def _print_json(payload):
    from json.encoder import encode_basestring_ascii

    print(_json_text(payload, encode_basestring_ascii, "\n"))


def _print_fields(args, fields):
    """Print a (key, value) list as `key: value` lines, a tuple joined with ", ".

    With --json it is one object instead, "command" first.
    """
    if args.json:
        _print_json({"command": args.command, **dict(fields)})
        return
    for key, value in fields:
        print("%s: %s" % (key, ", ".join(map(str, value)) if isinstance(value, tuple) else value))


def _parse_partition(text):
    from .partitions import Partition

    return Partition.from_string(text)


def _spectral_input(args):
    """(partition, genus) of a --partition/--genus input; None for --quiver FILE."""
    if getattr(args, "quiver", None):
        return None
    if getattr(args, "partition", None) is None or getattr(args, "genus", None) is None:
        raise ValueError("provide either --quiver FILE or --partition P with --genus G")
    return _parse_partition(args.partition), args.genus


def _resolve_quiver(args):
    """The graph of --quiver FILE or of --partition/--genus, its edges (source, target) pairs."""
    from .graphs import load_graph, spectral_dual_graph

    spectral = _spectral_input(args)
    if spectral is None:
        with open(args.quiver, "r", encoding="utf-8") as handle:
            return load_graph(handle.read())
    return spectral_dual_graph(*spectral)


def cmd_strings(args):
    from .strings import string_table

    table = string_table(args.n, args.d)
    if args.json:
        payload = {
            "command": "strings",
            "n": table.n,
            "d": table.d,
            "gcd": table.q,
            "ranks": [{"partition": str(p), "rank": rank} for p, rank in table.ranks.items()],
            "rank_weighted_contributions": [str(p) for p in table.multiplier_partitions],
        }
        _print_json(payload)
        return 0
    # no echo of the raw degree: tables for degrees with equal gcd(n, d)
    # are byte-identical
    print("n=%d gcd=%d" % (table.n, table.q))
    names = [str(p) for p in table.ranks]
    width = max(map(len, names))
    for name, rank in zip(names, table.ranks.values()):
        print("%s  %d" % (name.ljust(width), rank))
    if table.multiplier_partitions:
        print("# contributions weighted by local-system rank > 1: %s"
              % "; ".join(str(p) for p in table.multiplier_partitions))
    return 0


def cmd_report(args):
    from .strings import _report_rows, table_report

    if args.json:
        parts, report = _report_rows(args.n)
        names = [str(p) for p in parts]
        rows = [
            {"gcd": label, "ranks": [{"partition": name, "rank": rank} for name, rank in zip(names, ranks)]}
            for label, ranks in report
        ]
        _print_json({"command": "report", "n": args.n, "rows": rows})
        return 0
    sys.stdout.write(table_report(args.n))
    return 0


def cmd_partition(args):
    from .partitions import admissible_partitions, local_system_rank, partitions_of, stabilizer_order

    parts = partitions_of(args.n) if args.d is None else admissible_partitions(args.n, args.d)
    if args.json:
        payload = {
            "command": "partition",
            "n": args.n,
            "partitions": [
                {
                    "partition": str(p),
                    "r": p.r,
                    "local_system_rank": local_system_rank(p),
                    "stabilizer_order": stabilizer_order(p),
                }
                for p in parts
            ],
        }
        if args.d is not None:
            payload["d"] = args.d
        _print_json(payload)
        return 0
    width = max(len(str(p)) for p in parts)
    for p in parts:
        print(
            "%s  r=%d  local_rank=%d  stabilizer=%d"
            % (str(p).ljust(width), p.r, local_system_rank(p), stabilizer_order(p))
        )
    return 0


def cmd_graph(args):
    from .graphs import betti1, dump_graph, to_dot

    quiver = _resolve_quiver(args)
    if args.dot:
        sys.stdout.write(to_dot(quiver, args.directed))
        return 0
    if args.emit:
        sys.stdout.write(dump_graph(quiver))
        return 0
    r, s, b1 = quiver.vertex_count, quiver.edge_count, betti1(quiver)
    if args.json:
        _print_json(
            {
                "command": "graph",
                "vertices": r,
                "edges": quiver.edges,
                "r": r,
                "s": s,
                "b1": b1,
            }
        )
        return 0
    print("r=%d s=%d b1=%d" % (r, s, b1))
    return 0


def cmd_gale(args):
    from .graphs import boundary_matrix, gale_dual
    from .hypertoric import circuit_relations
    from .intlinalg import verify_exact

    quiver = _resolve_quiver(args)
    # gale_dual makes every refusal before a dense matrix is built
    B = gale_dual(quiver)
    A = boundary_matrix(quiver)
    report = verify_exact(A, B)
    circuits = circuit_relations(quiver)
    if args.json:
        _print_json(
            {
                "command": "gale",
                "A": A.data,
                "B": B.data,
                "exact": report.ok,
                "circuits": [
                    {"index": rel.index, "coefficients": list(rel.coefficients)}
                    for rel in circuits
                ],
            }
        )
        return 0
    print("A =")
    print(str(A))
    print("B =")
    print(str(B))
    print("exact: %s" % ("ok" if report.ok else "FAILED " + "; ".join(report.failures)))
    print("circuits:")
    for rel in circuits:
        print("i=%d: %s" % (rel.index, rel))
    return 0


def cmd_tutte(args):
    import math

    from .matroid import tutte_polynomial

    poly = tutte_polynomial(_resolve_quiver(args))
    # the cache_warm benchmark's set-up copies the file a run creates
    _create_cache(args.cache)
    value = None
    if args.eval:
        x, y = args.eval
        # |x|^i <= 2^(i * ceil(log2 |x|)), so |T(x, y)| < 2^bits; refuse a value
        # the int -> str conversion could not print, before computing it
        bx, by = (max(abs(v) - 1, 0).bit_length() for v in args.eval)
        bits = len(poly.coeffs).bit_length() + max(
            (c.bit_length() + i * bx + j * by for (i, j), c in poly.coeffs.items()), default=0
        )
        digits = math.ceil(bits * math.log10(2))
        if digits > MAX_EVAL_DIGITS:
            raise ValueError(
                "T(%d,%d) may have up to %d decimal digits; the limit is %d" % (x, y, digits, MAX_EVAL_DIGITS)
            )
        value = poly.evaluate(x, y)
    if args.json:
        payload = {
            "command": "tutte",
            "terms": [[i, j, c] for (i, j), c in poly.terms()],
        }
        if args.eval:
            payload["point"] = list(args.eval)
            payload["value"] = value
        _print_json(payload)
        return 0
    text = "T = %s" % poly
    if args.eval:
        text += "\nT(%d,%d) = %d" % (x, y, value)
    print(text)
    return 0


def cmd_matroid(args):
    from .matroid import CographicMatroid, f_h_vectors

    matroid = CographicMatroid(_resolve_quiver(args))
    f, h = f_h_vectors(matroid)
    _create_cache(args.cache)
    # h[-1] is T_graphic(1, 0), the sphere count printed as top_betti
    _print_fields(args, [("edges", matroid.size), ("rank", matroid.rank), ("f", f), ("h", h), ("top_betti", h[-1])])
    return 0


def cmd_matroid_homology(args):
    from .homology import matroid_complex, reduced_homology_ranks
    from .matroid import CographicMatroid

    matroid = CographicMatroid(_resolve_quiver(args))
    complex_ = matroid_complex(matroid)
    ranks = reduced_homology_ranks(complex_)
    top_degree = len(ranks) - 2
    wedge_ok = all(v == 0 for v in ranks[:-1])
    if args.json:
        _print_json(
            {
                "command": "matroid-homology",
                "ranks": [{"degree": k - 1, "rank": v} for k, v in enumerate(ranks)],
                "top_degree": top_degree,
                "spheres": ranks[-1] if ranks else 0,
                "wedge": wedge_ok,
            }
        )
    else:
        for k, v in enumerate(ranks):
            print("degree %d: %d" % (k - 1, v))
        print("top degree: %d" % top_degree)
        print("spheres: %d" % (ranks[-1] if ranks else 0))
        print("wedge: %s" % ("ok" if wedge_ok else "FAILED"))
    if not wedge_ok:
        raise ValueError("homology does not vanish below the top degree")
    return 0


# the strata table, one (JSON key, text header, StratumRecord field) per column
_STRATA_COLUMNS = [
    ("blocks", "stratum", "vp"),
    ("s", "s", "s_contracted"),
    ("b1", "b1", "b1_contracted"),
    ("codim_X", "codimX", "codim_in_X"),
    ("codim_Y", "codimY", "codim_in_Y"),
    ("fiber_dim", "fiber", "fiber_dim"),
    ("multiplicity", "mult", "multiplicity"),
    ("deleted_loops", "loops", "deleted_loops"),
]


def cmd_strata(args):
    from .hypertoric import enumerate_strata, spectral_strata

    # partition inputs take spectral_strata, which builds no graph; --cache is
    # accepted and ignored, since no sphere count takes a Tutte polynomial
    spectral = _spectral_input(args)
    records = enumerate_strata(_resolve_quiver(args)) if spectral is None else spectral_strata(*spectral)
    keys, headers, fields = zip(*_STRATA_COLUMNS)
    rows = [[str(getattr(rec, field)) for field in fields] for rec in records]
    if args.json:
        _print_json({"command": "strata", "strata": [dict(zip(keys, row)) for row in rows]})
        return 0
    table = [headers] + rows
    widths = [max(len(row[j]) for row in table) for j in range(len(headers))]
    for row in table:
        print("  ".join(map(str.ljust, row, widths)).rstrip())
    return 0


def cmd_local_model(args):
    from .hypertoric import local_model_dims

    dims = local_model_dims(_parse_partition(args.partition), args.genus)
    fields = [
        ("partition", str(dims.partition)),
        ("genus", dims.g),
        ("n", dims.n),
        ("s", dims.s),
        ("b1", dims.b1),
        ("d", dims.d_dim),
        ("c", dims.c_dim),
        ("dim_M", dims.dim_M),
        ("dim_Y", dims.dim_Y),
        ("dim_X", dims.dim_X),
        ("dim_Jbar", dims.dim_Jbar),
    ]
    _print_fields(args, fields)
    return 0


def cmd_dims(args):
    from .strings import stratum_dims

    dims = stratum_dims(_parse_partition(args.partition), args.genus)
    fields = [
        ("partition", str(dims.partition)),
        ("genus", dims.g),
        ("dim_A", dims.dim_A),
        ("dim_S", dims.dim_S),
        ("codim_S", dims.codim_S),
        ("delta", dims.delta),
        ("component_genera", dims.component_genera),
        ("spectral_genus", dims.spectral_genus),
        ("psi", dims.psi),
    ]
    _print_fields(args, fields)
    return 0


# (flag, add_argument keywords) of the options the subcommands share
_N = ("--n", {"type": int, "required": True})
_GRAPH_SOURCE = [
    ("--partition", {"help": "partition as comma-separated parts, e.g. 2,1,1"}),
    ("--genus", {"type": int, "help": "genus of the base curve (>= 2)"}),
    ("--quiver", {"help": "path to a graph file (format graph/1)"}),
]
_CACHE = ("--cache", {"help": "Tutte cache file"})
_STRATUM = [("--partition", {"required": True}), ("--genus", {"type": int, "required": True})]

# name -> (help, handler, options before --json), in help order
SUBCOMMANDS = {
    "strings": ("rank table for one (n, d)", cmd_strings, [_N, ("--d", {"type": int, "required": True})]),
    "report": ("full gcd-indexed rank table for one n", cmd_report, [_N]),
    "partition": (
        "list partitions and their constants",
        cmd_partition,
        [_N, ("--d", {"type": int, "default": None, "help": "restrict to the degree-admissible subset"})],
    ),
    "graph": (
        "spectral dual graph statistics, DOT or file emission",
        cmd_graph,
        _GRAPH_SOURCE
        + [
            ("--dot", {"action": "store_true", "help": "emit DOT instead of statistics"}),
            ("--directed", {"action": "store_true", "help": "DOT as a digraph with orientations"}),
            ("--emit", {"action": "store_true", "help": "emit the graph file format (graph/1)"}),
        ],
    ),
    "gale": ("boundary matrix, Gale dual and circuit relations", cmd_gale, _GRAPH_SOURCE),
    "tutte": (
        "Tutte polynomial, optionally evaluated",
        cmd_tutte,
        _GRAPH_SOURCE + [_CACHE, ("--eval", {"type": int, "nargs": 2, "metavar": ("X", "Y")})],
    ),
    "matroid": ("cographic f/h-vectors and sphere count", cmd_matroid, _GRAPH_SOURCE + [_CACHE]),
    "matroid-homology": ("reduced homology of the matroid complex", cmd_matroid_homology, _GRAPH_SOURCE),
    "strata": ("vertex-partition stratum table", cmd_strata, _GRAPH_SOURCE + [_CACHE]),
    "local-model": ("dimension ledger of the local model", cmd_local_model, _STRATUM),
    "dims": ("stratum dimensions and delta invariant", cmd_dims, _STRATUM),
}


def build_parser():
    """The argument parser of every subcommand."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ngostrings",
        description="Exact combinatorics of string ranks, spectral dual graphs and hypertoric strata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=handler)
    return parser


def _fast_args(argv):
    """The namespace of a command line in the one strict form, else None.

    The strict form is a subcommand followed by exact flags of it, each at
    most once, with every required option present, no value starting with
    ``-`` and every ``type=int`` value taken by ``int``.  Such a line means
    the same to argparse, which stays the reader of every other line and the
    only writer of usage, help and error text.
    """
    from types import SimpleNamespace

    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    _, handler, options = SUBCOMMANDS[argv[0]]
    specs = dict(options)
    specs["--json"] = {"action": "store_true"}
    given = {}
    i = 1
    while i < len(argv):
        flag = argv[i]
        keywords = specs.get(flag)
        if keywords is None or flag in given:
            return None
        if keywords.get("action") == "store_true":
            given[flag] = True
            i += 1
            continue
        count = keywords.get("nargs", 1)
        values = argv[i + 1 : i + 1 + count]
        if len(values) < count or any(v.startswith("-") for v in values):
            return None
        if keywords.get("type") is int:
            try:
                values = [int(v) for v in values]
            except ValueError:
                return None
        given[flag] = values if "nargs" in keywords else values[0]
        i += 1 + count
    args = SimpleNamespace(command=argv[0], func=handler)
    for flag, keywords in specs.items():
        if flag in given:
            value = given[flag]
        elif keywords.get("required"):
            return None
        else:
            value = keywords.get("default", False if keywords.get("action") == "store_true" else None)
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


def run(argv):
    """Dispatch a command line; returns the exit status."""
    args = _fast_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, ModelInconsistencyError, ResourceLimitError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def _observed():
    """Whether a profiler, tracer or debugger watches the process, or ``python -i`` will prompt.

    Since Python 3.12 a tool may register through ``sys.monitoring`` instead
    of ``sys.setprofile`` or ``sys.settrace``, as cProfile does, so a
    registered monitoring tool counts too.
    """
    if sys.getprofile() is not None or sys.gettrace() is not None or sys.flags.inspect:
        return True
    monitoring = getattr(sys, "monitoring", None)
    # tool ids 0-5 are the ones sys.monitoring hands out
    return monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))


def _flush_std(status):
    """Flush stdout and stderr; returns the status, or 1 if stdout could not take the output.

    That failure is reported as one ``error:`` line, and sys.stdout is set
    to None, so that nothing flushes the undeliverable output again.
    """
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            sys.stdout = None
            print("error: %s" % exc, file=sys.stderr)
            status = 1
    if sys.stderr is not None:
        sys.stderr.flush()
    return status


def main():
    """Run the command line of this process, then end the process with its status.

    Once the output is flushed and the ``atexit`` handlers have run (their
    output flushed too), ``os._exit`` ends the process without the module
    teardown and final collection of interpreter shutdown, which would free
    nothing the operating system does not reclaim anyway.  Output that stdout
    cannot take (a closed pipe, a full disk) ends the process with one
    ``error:`` line and status 1.  The process exits through ``sys.exit``
    when it is observed (see ``_observed``): a profiler or tracer prints its
    results during shutdown, and ``python -i`` opens its prompt.
    """
    import atexit

    status = run(sys.argv[1:])
    if _observed():
        sys.exit(status)
    status = _flush_std(status)
    atexit._run_exitfuncs()
    os._exit(_flush_std(status))
