"""Shared test helpers: seeded random graph generation and brute-force oracles."""

import functools
import importlib.util
import json
import math
import sys
from collections import Counter, namedtuple
from itertools import islice
from pathlib import Path

from ngostrings import strings
from ngostrings.cli import CACHE_FORMAT
from ngostrings.errors import ResourceLimitError
from ngostrings.graphs import (
    MultiGraph,
    Quiver,
    VertexPartition,
    betti1,
    pairs_canonical_key,
    pairs_connected,
)
from ngostrings.hypertoric import StratumRecord
from ngostrings.intlinalg import MAX_DENSE_ENTRIES, ExactnessReport, IntMatrix
from ngostrings.matroid import TuttePolynomial, _tutte
from ngostrings.partitions import (
    Partition,
    _partition_numbers,
    admissible_partitions,
    local_system_rank,
    partitions_of,
    set_partitions,
)


def random_connected_multigraph(rng, max_vertices=6, max_edges=10, allow_loops=False):
    """Random connected multigraph: a random spanning tree plus extra edges."""
    r = rng.randint(1, max_vertices)
    edges = []
    for v in range(1, r):
        edges.append((rng.randrange(v), v))
    extra = rng.randint(0, max(0, max_edges - len(edges)))
    for _ in range(extra):
        u = rng.randrange(r)
        v = rng.randrange(r)
        if u == v and not allow_loops:
            if r == 1:
                continue
            v = (v + 1) % r
        edges.append((u, v))
    return MultiGraph(r, edges)


_BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


@functools.cache
def bench_workloads():
    """The benchmark's bench/workloads.py, loaded by path once, so tests draw the same inputs."""
    sys.path.insert(0, str(_BENCH_DIR))  # workloads.py imports its sibling harness.py
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", _BENCH_DIR / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(_BENCH_DIR))
    return module


def tutte_cold_pairs(seed):
    """Pair multiplicities of the tutte_cold benchmark's random quivers for one seed, drawn by bench/."""
    workloads = bench_workloads()
    out = []
    for slot, (r, s) in enumerate(workloads.TUTTE_RANDOM):
        r, edges = workloads.random_multigraph(workloads._rng("tutte_cold", seed, slot), r, s)
        out.append((r, dict(MultiGraph(r, edges).pair_multiplicities())))
    return out


def _merge_vertices(graph, a, b):
    """Identify vertex b with a (b removed from the numbering)."""

    def rename(v):
        if v == b:
            v = a
        return v - 1 if v > b else v

    return MultiGraph(graph.vertex_count - 1, [(rename(u), rename(v)) for u, v in graph.edges])


def contract_counting_loops(quiver, vp):
    """Oracle: contract each block of ``vp`` to a point on the edge list; drop loops, count them.

    Edges joining distinct blocks survive with the induced orientation and
    in the input order; edges internal to a block would become loops and are
    deleted.  Returns (contracted quiver, number of deleted loops).
    """
    if not isinstance(vp, VertexPartition):
        vp = VertexPartition(vp)
    if {v for b in vp.blocks for v in b} != set(range(quiver.vertex_count)):
        raise ValueError(
            "vertex partition %s does not cover vertices 0..%d" % (vp, quiver.vertex_count - 1)
        )
    index = vp.block_of()
    edges = []
    dropped = 0
    for u, v in quiver.edges:
        bu, bv = index[u], index[v]
        if bu == bv:
            dropped += 1
        else:
            edges.append((bu, bv))
    return Quiver(len(vp.blocks), edges), dropped


def certify_small_bell_walk(quiver):
    """Oracle: the records whose edge-list contraction has b1 >= s, over every partition with at least two blocks."""
    if not quiver.is_connected():
        raise ValueError("stratum enumeration requires a connected quiver")
    violations = []
    for blocks in set_partitions(range(quiver.vertex_count)):
        if len(blocks) < 2:
            continue
        vp = VertexPartition(blocks)
        contracted, dropped = contract_counting_loops(quiver, vp)
        b1c, sc = betti1(contracted), contracted.edge_count
        if not b1c < sc:
            violations.append(
                StratumRecord(
                    vp=vp,
                    s_contracted=sc,
                    deleted_loops=dropped,
                    b1_contracted=b1c,
                    codim_in_X=b1c + sc,
                    codim_in_Y=2 * b1c,
                    fiber_dim=b1c,
                    multiplicity=-1,
                )
            )
    return tuple(violations)


def top_betti_reference(graph, cache=None):
    """Oracle: T_graphic(1, 0) of a connected multigraph, its Tutte polynomial from _tutte evaluated.

    That is the number of top-dimensional spheres in the matroid complex of
    the cographic matroid; cache, when given, is the memo dict of _tutte.
    """
    if not graph.is_connected():
        raise ValueError("top_betti_reference requires a connected graph")
    pairs = graph.pair_multiplicities()
    return _tutte(graph.vertex_count, pairs, {} if cache is None else cache).evaluate(1, 0)


def enumerate_strata_reference(quiver, cache=None):
    """Oracle: the strata with a canonical key and a memoized T(1, 0) computed for every record.

    Contracts the pair multiplicities along each vertex partition, whatever
    the quiver, and sorts by (codimension, canonical key, blocks).
    """
    r = quiver.vertex_count
    if r > 12:
        raise ResourceLimitError("stratum enumeration is capped at 12 vertices (Bell growth); got %d" % r)
    if not quiver.is_connected():
        raise ValueError("stratum enumeration requires a connected quiver")
    if cache is None:
        cache = {}
    pairs = quiver.pair_multiplicities()
    keyed = []
    for blocks in set_partitions(range(r)):
        vp = VertexPartition(blocks)
        index = vp.block_of()
        contracted = {}
        dropped = 0
        for (u, v), k in pairs.items():
            a, b = index[u], index[v]
            if a == b:
                dropped += k
            else:
                pair = (a, b) if a < b else (b, a)
                contracted[pair] = contracted.get(pair, 0) + k
        sc = quiver.edge_count - dropped
        b1c = sc - len(vp) + 1
        key = pairs_canonical_key(len(vp), contracted)
        multiplicity = _tutte(len(vp), contracted, cache).evaluate(1, 0) if b1c else 1
        record = StratumRecord(
            vp=vp,
            s_contracted=sc,
            deleted_loops=dropped,
            b1_contracted=b1c,
            codim_in_X=b1c + sc,
            codim_in_Y=2 * b1c,
            fiber_dim=b1c,
            multiplicity=multiplicity,
        )
        keyed.append(((2 * b1c, b1c + sc, key, vp.blocks), record))
    keyed.sort(key=lambda item: item[0])
    return [rec for _, rec in keyed]


def _refined_colors_reference(r, pairs):
    """Stable 1-dimensional color refinement; returns vertex -> dense color id."""
    neigh = {v: [] for v in range(r)}
    for (u, v), k in pairs.items():
        if u != v:
            neigh[u].append((v, k))
            neigh[v].append((u, k))
    initial = {
        v: (pairs.get((v, v), 0), tuple(sorted(k for _, k in neigh[v])))
        for v in range(r)
    }
    order = sorted(set(initial.values()))
    colors = {v: order.index(initial[v]) for v in range(r)}
    while True:
        keys = {
            v: (colors[v], tuple(sorted((k, colors[u]) for u, k in neigh[v])))
            for v in range(r)
        }
        order = sorted(set(keys.values()))
        new = {v: order.index(keys[v]) for v in range(r)}
        if new == colors:
            return colors
        colors = new


def pairs_canonical_key_reference(r, pairs):
    """Oracle: the canonical key by the first search, twin classes found again at every node.

    Its bytes are the ones every cache file and strata sort was written
    with, so pairs_canonical_key must reproduce them exactly.
    """

    def m(u, v):
        return pairs.get((u, v) if u <= v else (v, u), 0)

    colors = _refined_colors_reference(r, pairs)
    class_seq = sorted(colors.values())

    best = None
    visited = set()

    def dfs(placed, prefix):
        nonlocal best
        k = len(placed)
        if best is not None:
            head = best[: len(prefix)]
            if prefix > head:
                return
        if k == r:
            if best is None or prefix < best:
                best = prefix
            return
        state = (frozenset(placed), prefix)
        if state in visited:
            return
        if len(visited) < (1 << 18):
            visited.add(state)
        want = class_seq[k]
        candidates = [v for v in range(r) if v not in placed and colors[v] == want]
        reps = []
        for v in candidates:
            dup = False
            for w in reps:
                if m(v, v) != m(w, w):
                    continue
                if all(m(v, x) == m(w, x) for x in range(r) if x != v and x != w):
                    dup = True
                    break
            if not dup:
                reps.append(v)
        for v in reps:
            row = (m(v, v),) + tuple(m(v, u) for u in placed)
            dfs(placed + (v,), prefix + row)

    dfs((), ())
    return repr((r, best)).encode("ascii")


def _merge_pairs(pairs, a, b):
    """Identify vertex b with a < b in a multiplicity map; b leaves the numbering."""

    def rename(v):
        if v == b:
            v = a
        return v - 1 if v > b else v

    out = {}
    for (u, v), k in pairs.items():
        u, v = sorted((rename(u), rename(v)))
        out[(u, v)] = out.get((u, v), 0) + k
    return out


def tutte_reference(r, pairs, cache, key=None):
    """Oracle: bundle deletion-contraction with a canonical key, looked up and stored, at every node.

    key, when given, must equal pairs_canonical_key_reference(r, pairs).
    """
    if key is None:
        key = pairs_canonical_key_reference(r, pairs)
    hit = cache.get(key)
    if hit is not None:
        return hit

    loops = sum(k for (u, v), k in pairs.items() if u == v)
    core = {(u, v): k for (u, v), k in pairs.items() if u != v}
    if not core:
        poly = TuttePolynomial.one()
    else:
        (u, v), k = max(core.items(), key=lambda kv: (kv[1], (-kv[0][0], -kv[0][1])))
        del core[(u, v)]
        contracted = _merge_pairs(core, u, v)
        geometric = TuttePolynomial({(0, j): 1 for j in range(k)})
        if pairs_connected(r, core):
            poly = tutte_reference(r, core, cache) + geometric * tutte_reference(r - 1, contracted, cache)
        else:
            # the bundle is a cut: the last surviving edge is a bridge
            factor = TuttePolynomial.monomial(1, 0) + TuttePolynomial({(0, j): 1 for j in range(1, k)})
            poly = factor * tutte_reference(r - 1, contracted, cache)
    if loops:
        poly = TuttePolynomial.monomial(0, loops) * poly
    cache[key] = poly
    return poly


def cache_load_reference(path):
    """Oracle: the two-pass cache decoder, each term converted by a dict and again by TuttePolynomial."""
    cache = {}
    try:
        with open(path, "r", encoding="ascii") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return cache
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        print("warning: ignoring unreadable cache %s (%s)" % (path, exc), file=sys.stderr)
        return cache
    if not isinstance(payload, dict) or payload.get("format") != CACHE_FORMAT:
        print("warning: ignoring cache %s with unsupported format" % path, file=sys.stderr)
        return cache
    try:
        items = []
        for key_text, terms in payload["entries"].items():
            poly = TuttePolynomial({(int(i), int(j)): int(c) for i, j, c in terms})
            items.append((key_text.encode("ascii"), poly))
        cache.update(items)
    except (KeyError, TypeError, ValueError, AttributeError):
        print("warning: ignoring malformed cache %s" % path, file=sys.stderr)
        return {}
    return cache


def indented_cache_text(cache):
    """The cache file text of the earlier writer: sorted keys, indent=1, a final newline."""
    entries = {}
    for key, poly in sorted(cache.items()):
        entries[key.decode("ascii")] = [[i, j, str(c)] for (i, j), c in poly.terms()]
    return json.dumps({"format": CACHE_FORMAT, "entries": entries}, indent=1, sort_keys=True) + "\n"


def tutte_polynomial_naive(graph):
    """Oracle: single-edge deletion-contraction on the edge list, without memoization."""
    if not graph.is_connected():
        raise ValueError("Tutte polynomial requires a connected graph")
    if graph.edge_count == 0:
        return TuttePolynomial.one()
    u, v = graph.edges[0]
    rest = graph.without_edges([0])
    if u == v:
        return TuttePolynomial.monomial(0, 1) * tutte_polynomial_naive(rest)
    contracted = _merge_vertices(rest, min(u, v), max(u, v))
    if rest.is_connected():
        return tutte_polynomial_naive(rest) + tutte_polynomial_naive(contracted)
    return TuttePolynomial.monomial(1, 0) * tutte_polynomial_naive(contracted)


class NotBoundaryMapError(ValueError):
    """The matrix is not surjective over Z, so it has no Gale dual."""


def row_hermite_form(rows, ncols):
    """Oracle: canonical basis of the lattice spanned by the given integer rows.

    Row-style Hermite normal form: echelon shape, positive pivots, entries
    above each pivot reduced into [0, pivot).  The output depends only on
    the row lattice, which makes kernel bases reproducible.
    """
    work = [list(r) for r in rows]
    pivot_row = 0
    for col in range(ncols):
        while True:
            live = [i for i in range(pivot_row, len(work)) if work[i][col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: (abs(work[i][col]), i))
            i0 = live[0]
            for i in live[1:]:
                q = work[i][col] // work[i0][col]
                work[i] = [a - q * b for a, b in zip(work[i], work[i0])]
        if not live:
            continue
        i0 = live[0]
        work[pivot_row], work[i0] = work[i0], work[pivot_row]
        if work[pivot_row][col] < 0:
            work[pivot_row] = [-v for v in work[pivot_row]]
        pivot = work[pivot_row][col]
        for i in range(pivot_row):
            q = work[i][col] // pivot
            if q:
                work[i] = [a - q * b for a, b in zip(work[i], work[pivot_row])]
        pivot_row += 1
    return [row for row in work[:pivot_row]]


def gale_dual_hermite(A):
    """Oracle: matrix B whose columns are the Hermite basis of the saturated kernel of any A.

    Requires A (m x n) to be surjective over Z; raises NotBoundaryMapError
    otherwise.  One Hermite form does both jobs (Cohen, GTM 138, section
    2.4).  The rows (A e_j | e_j) span the lattice {(Ax, x) : x in Z^n}; in
    its row Hermite form H, the first m columns of the leading rows are the
    Hermite form of the image A Z^n, and every later row is (0 | x) with x
    running through the Hermite basis of ker(A).  So A is surjective exactly
    when the diagonal H[0][0], ..., H[m-1][m-1] is all ones, and the
    remaining rows, read as columns, are B.  The rows are fed last column
    first, which changes only the amount of work.
    """
    m, n = A.rows, A.cols
    if n * (m + n) > MAX_DENSE_ENTRIES:
        raise ResourceLimitError(
            "the Gale dual of a %dx%d matrix needs %d dense entries; the limit is %d"
            % (m, n, n * (m + n), MAX_DENSE_ENTRIES)
        )
    rows = []
    for j in reversed(range(n)):
        row = [A.data[i][j] for i in range(m)] + [0] * n
        row[m + j] = 1
        rows.append(row)
    H = row_hermite_form(rows, m + n)
    diagonal = tuple(H[i][i] if i < len(H) else 0 for i in range(m))
    if any(d != 1 for d in diagonal):
        raise NotBoundaryMapError(
            "matrix is not surjective over Z (Hermite diagonal %r)" % (diagonal,)
        )
    basis = [row[m:] for row in H[m:]]
    return IntMatrix([[basis[k][i] for k in range(len(basis))] for i in range(n)])


def matmul(a, b):
    """Product of two matrices given as lists of rows."""
    columns = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, column)) for column in columns] for row in a]


class SmithDecomposition(namedtuple("SmithDecomposition", "U S V")):
    """Unimodular U, V with U*A*V = S, S diagonal with divisibility chain, all lists of rows."""

    __slots__ = ()

    @property
    def invariants(self):
        """Nonzero diagonal entries d1 | d2 | ... of S."""
        return tuple(row[i] for i, row in enumerate(self.S) if i < len(row) and row[i] != 0)

    @property
    def rank(self):
        return len(self.invariants)


def _pivot_in_submatrix(S, t):
    """Smallest-magnitude nonzero entry of S[t:, t:], ties by row-major position.

    No entry is smaller than a unit, so the first +-1 ends the scan.
    """
    best = None
    for i in range(t, len(S)):
        row = S[i]
        for j in range(t, len(row)):
            v = row[j]
            if v != 0 and (best is None or abs(v) < abs(best[0])):
                if v == 1 or v == -1:
                    return (v, i, j)
                best = (v, i, j)
    return best


def smith_normal_form(A):
    """Oracle: Smith normal form of an IntMatrix with transforms, U*A*V = S.

    Deterministic for a fixed input: the pivot at each step is the
    smallest-magnitude nonzero entry of the remaining submatrix, ties broken
    by row-major position.
    """
    m, n = A.rows, A.cols
    S = [list(row) for row in A.data]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, k):
        S[i], S[k] = S[k], S[i]
        U[i], U[k] = U[k], U[i]

    def swap_cols(j, k):
        for row in S:
            row[j], row[k] = row[k], row[j]
        for row in V:
            row[j], row[k] = row[k], row[j]

    def add_row(src, dst, factor):
        S[dst] = [d + factor * v for d, v in zip(S[dst], S[src])]
        U[dst] = [d + factor * v for d, v in zip(U[dst], U[src])]

    def add_col(src, dst, factor):
        for row in S:
            if row[src]:
                row[dst] += factor * row[src]
        for row in V:
            if row[src]:
                row[dst] += factor * row[src]

    t = 0
    while t < min(m, n):
        found = _pivot_in_submatrix(S, t)
        if found is None:
            break
        _, pi, pj = found
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            # clear column t below/above the pivot
            restart = False
            for i in range(m):
                if i != t and S[i][t] != 0:
                    q = S[i][t] // S[t][t]
                    add_row(t, i, -q)
                    if S[i][t] != 0:
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(n):
                if j != t and S[t][j] != 0:
                    q = S[t][j] // S[t][t]
                    add_col(t, j, -q)
                    if S[t][j] != 0:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # enforce divisibility: pivot must divide the rest of the submatrix
            if S[t][t] in (1, -1):
                break
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if S[i][j] % S[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if S[t][t] < 0:
            for j in range(n):
                S[t][j] = -S[t][j]
            for j in range(m):
                U[t][j] = -U[t][j]
        t += 1

    return SmithDecomposition(U=U, S=S, V=V)


def gale_dual_via_smith(A):
    """Oracle: Gale dual from the Smith transform V, whose columns past the rank span ker(A).

    Surjectivity is read off the Smith invariants, and the kernel columns of
    V are put in row Hermite form, so the result is the Hermite basis of
    ker(A), as in gale_dual_hermite.
    """
    dec = smith_normal_form(A)
    if dec.rank < A.rows or any(d != 1 for d in dec.invariants):
        raise NotBoundaryMapError(
            "matrix is not surjective over Z (Smith invariants %r)" % (dec.invariants,)
        )
    n = A.cols
    kernel_rows = [[row[j] for row in dec.V] for j in range(dec.rank, n)]
    basis = row_hermite_form(kernel_rows, n) if kernel_rows else []
    return IntMatrix([[basis[k][i] for k in range(len(basis))] for i in range(n)])


def verify_exact_via_smith(A, B):
    """Oracle: verify_exact with every rank and invariant read off the Smith forms of A and B."""
    if A.cols != B.rows:
        raise ValueError(
            "shapes do not compose: A is %dx%d, B is %dx%d"
            % (A.rows, A.cols, B.rows, B.cols)
        )
    product_is_zero = not any(map(any, matmul(A.data, B.data)))
    a_dec = smith_normal_form(A)
    b_dec = smith_normal_form(B)
    b_injective = b_dec.rank == B.cols
    spans_kernel = b_dec.rank == A.cols - a_dec.rank
    a_surjective = a_dec.rank == A.rows and all(d == 1 for d in a_dec.invariants)
    saturated = all(d == 1 for d in b_dec.invariants)

    failures = []
    if not product_is_zero:
        failures.append("product A*B nonzero")
    if not b_injective:
        failures.append("B not injective")
    if not a_surjective:
        failures.append("A not surjective over Z")
    if not spans_kernel:
        failures.append("not spanning")
    if not saturated:
        failures.append("kernel not saturated")
    return ExactnessReport(
        ok=not failures,
        product_is_zero=product_is_zero,
        b_injective=b_injective,
        a_surjective_over_z=a_surjective,
        spans_kernel=spans_kernel,
        saturated=saturated,
        failures=tuple(failures),
    )


def sparse_rank_reference(rows):
    """Oracle: fraction-free rank over Q that re-sorts every live row and entry at each pivot.

    The pivot is the entry of smallest magnitude, then of smallest Markowitz
    fill estimate, then first by position.
    """
    work = {}
    col_rows = {}
    for i, row in enumerate(rows):
        entries = {j: int(v) for j, v in row.items() if v}
        if not entries:
            continue
        g = math.gcd(*entries.values())
        if g > 1:
            entries = {j: v // g for j, v in entries.items()}
        work[i] = entries
        for j in entries:
            col_rows.setdefault(j, set()).add(i)

    rank = 0
    while work:
        best = None
        for i in sorted(work):
            row = work[i]
            rweight = len(row) - 1
            for j in sorted(row):
                v = abs(row[j])
                cost = (v, rweight * (len(col_rows[j]) - 1), i, j)
                if best is None or cost < best:
                    best = cost
        _, _, pi, pj = best
        prow = work[pi]
        p = prow[pj]
        for i in sorted(col_rows[pj]):
            if i == pi:
                continue
            row = work[i]
            a = row[pj]
            g = math.gcd(p, a)
            fr, fp = p // g, a // g
            merged = {}
            for j, v in row.items():
                merged[j] = fr * v
            for j, v in prow.items():
                nv = merged.get(j, 0) - fp * v
                if nv:
                    merged[j] = nv
                elif j in merged:
                    del merged[j]
            for j in row:
                if j not in merged:
                    col_rows[j].discard(i)
            for j in merged:
                if j not in row:
                    col_rows.setdefault(j, set()).add(i)
            if merged:
                g2 = math.gcd(*merged.values())
                if g2 > 1:
                    merged = {j: v // g2 for j, v in merged.items()}
                work[i] = merged
            else:
                del work[i]
        for j in prow:
            col_rows[j].discard(pi)
        del work[pi]
        rank += 1
    return rank


def eliminate_reference(rows):
    """Oracle: intlinalg._eliminate with every row update a cross-multiplied copy.

    (rank, unimodular) of sparse rows (dicts col -> value), with the same
    pivot rule; a unit pivot is not special-cased.
    """
    from heapq import heapify, heappop, heappush

    work = {}
    col_rows = {}
    unimodular = True
    for i, row in enumerate(rows):
        entries = {j: int(v) for j, v in row.items() if v}
        if not entries:
            continue
        g = math.gcd(*entries.values())
        if g > 1:
            unimodular = False
            entries = {j: v // g for j, v in entries.items()}
        work[i] = entries
        for j in entries:
            col_rows.setdefault(j, set()).add(i)

    queue = [(len(row), i) for i, row in work.items()]
    heapify(queue)
    rank = 0
    while queue:
        length, pi = heappop(queue)
        prow = work.get(pi)
        if prow is None or len(prow) != length:
            continue
        del work[pi]
        pj = min(prow, key=lambda j: (abs(prow[j]), len(col_rows[j]), j))
        p = prow[pj]
        if p != 1 and p != -1:
            unimodular = False
        for j in prow:
            col_rows[j].discard(pi)
        for i in list(col_rows[pj]):
            row = work[i]
            a = row[pj]
            g = math.gcd(p, a)
            fr, fp = p // g, a // g
            merged = {j: fr * v for j, v in row.items()}
            for j, v in prow.items():
                nv = merged.get(j, 0) - fp * v
                if nv:
                    merged[j] = nv
                elif j in merged:
                    del merged[j]
            for j in row:
                if j not in merged:
                    col_rows[j].discard(i)
            for j in merged:
                if j not in row:
                    col_rows.setdefault(j, set()).add(i)
            if merged:
                g = math.gcd(*merged.values())
                if g > 1:
                    unimodular = False
                    merged = {j: v // g for j, v in merged.items()}
                work[i] = merged
                heappush(queue, (len(merged), i))
            else:
                del work[i]
        rank += 1
    return rank, unimodular


def partition_count(n):
    """Oracle: the number p(n) of partitions of n, by Euler's pentagonal number recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative, got %r" % n)
    return next(islice(_partition_numbers(), n, None))


def partition_tuples_reference(n, max_part=None):
    """Oracle: the partitions of n into parts <= max_part, reverse-lexicographic, by plain recursion."""
    if n == 0:
        return [()]
    if max_part is None:
        max_part = n
    return [
        (k,) + rest
        for k in range(min(n, max_part), 0, -1)
        for rest in partition_tuples_reference(n - k, k)
    ]


def multiplicity_data(n):
    """All ways to write n = sum m_i * k_i as a multiset of pairs (m_i, k_i)."""

    def extend(remaining, floor_pair):
        if remaining == 0:
            yield ()
            return
        for m in range(1, remaining + 1):
            for k in range(1, remaining // m + 1):
                pair = (m, k)
                if pair < floor_pair:
                    continue
                for rest in extend(remaining - m * k, pair):
                    yield (pair,) + rest

    yield from extend(n, (1, 1))


def brute_force_stabilization_codim(n, genus):
    """Oracle: twice the base dimension minus twice the maximum of
    r + (g-1) * sum(k_i^2) over all nontrivial multiplicity data of n."""
    best = max(
        len(data) + (genus - 1) * sum(k * k for _, k in data)
        for data in multiplicity_data(n)
        if data != ((1, n),)  # the dense open stratum
    )
    return 2 * (n * n * (genus - 1) + 1) - 2 * best


def grouping_enumerate(fine, coarse):
    """All ways to group the labelled parts of ``fine`` into blocks realizing ``coarse``.

    The parts of ``fine`` are treated as distinguishable items; a grouping is
    a set partition of them into unordered blocks whose multiset of block
    sums equals ``coarse``.  Each grouping is returned as a list of blocks,
    each block canonicalized as a Partition and the blocks sorted in the
    canonical partition order.  Groupings that look identical after
    canonicalization are still listed once per underlying set partition.

    Items are placed into capacity slots directly rather than by filtering
    all set partitions, so the cost scales with the number of valid
    groupings; slots with equal capacity are opened in a fixed order so
    every unordered grouping appears exactly once.
    """
    if fine.n != coarse.n:
        raise ValueError(
            "partition sums differ: %s sums to %d, %s sums to %d"
            % (fine, fine.n, coarse, coarse.n)
        )
    parts = fine.parts
    k = coarse.r
    remaining = list(coarse.parts)
    blocks = [[] for _ in range(k)]
    out = []

    def place(i):
        if i == len(parts):
            grouping = sorted(
                (Partition(b) for b in blocks),
                key=lambda p: p.parts,
                reverse=True,
            )
            out.append(grouping)
            return
        p = parts[i]
        opened = set()
        for j in range(k):
            if remaining[j] < p:
                continue
            if not blocks[j]:
                # empty slots of equal capacity are interchangeable
                if remaining[j] in opened:
                    continue
                opened.add(remaining[j])
            remaining[j] -= p
            blocks[j].append(p)
            place(i + 1)
            blocks[j].pop()
            remaining[j] += p

    place(0)
    return out


def _blocks_summing(avail, idx, target):
    """Sub-multisets of avail (tuples (value, count), values descending) summing to target.

    Yields (content, remaining) with content a descending tuple of parts and
    remaining the depleted availability list.
    """
    if target == 0:
        yield (), avail
        return
    if idx == len(avail):
        return
    v, c = avail[idx]
    maxtake = min(c, target // v)
    for take in range(maxtake, -1, -1):
        for rest, remaining in _blocks_summing(avail, idx + 1, target - take * v):
            depleted = list(remaining)
            depleted[idx] = (v, c - take)
            yield (v,) * take + rest, tuple(depleted)


def grouping_types(fine, coarse):
    """Groupings of grouping_enumerate aggregated by block content.

    Returns a list of (blocks, count) pairs: ``blocks`` is a tuple of
    Partitions in canonical order (repeats included) describing one multiset
    of block contents, and ``count`` is the number of groupings of the
    labelled parts of ``fine`` realizing exactly those contents, computed by
    the multinomial formula

        count = prod_v alpha_v! / (prod_types (prod_v beta_v!)^c * c!).

    Summing the counts recovers grouping_count.
    """
    if fine.n != coarse.n:
        raise ValueError(
            "partition sums differ: %s sums to %d, %s sums to %d"
            % (fine, fine.n, coarse, coarse.n)
        )
    avail = tuple(sorted(fine.alpha.items(), reverse=True))
    targets = coarse.parts

    def assign(slot, remaining, prev_content):
        if slot == len(targets):
            yield ()
            return
        target = targets[slot]
        for content, depleted in _blocks_summing(remaining, 0, target):
            # equal-capacity slots take contents in nonincreasing order so
            # every multiset of contents appears exactly once
            if slot > 0 and targets[slot - 1] == target and content > prev_content:
                continue
            for rest in assign(slot + 1, depleted, content):
                yield (content,) + rest

    out = []
    numerator = 1
    for _, count in avail:
        numerator *= math.factorial(count)
    for contents in assign(0, avail, None):
        denominator = 1
        for content, repeat in Counter(contents).items():
            inner = 1
            for mult in Counter(content).values():
                inner *= math.factorial(mult)
            denominator *= inner ** repeat * math.factorial(repeat)
        blocks = tuple(
            sorted((Partition(c) for c in contents), key=lambda p: p.parts, reverse=True)
        )
        out.append((blocks, numerator // denominator))
    return out


def grouping_count(fine, coarse):
    """Number of groupings of ``fine``'s labelled parts with block sums ``coarse``."""
    return sum(count for _, count in grouping_types(fine, coarse))


_GROUPING_MEMO = {}


def grouping_string_ranks(n, q):
    """Oracle: the rank table for rank n at gcd q | n by the grouping recursion.

    For every fine partition, (r-1)! minus, for every proper admissible
    coarsening, (|m|-1)! times the sum over grouping types of the product
    of sub-table ranks.  Returns (dict parts -> rank, frozenset of the
    coarsenings entering some sub-table with weight (|m|-1)! > 1).
    """
    key = (n, q)
    hit = _GROUPING_MEMO.get(key)
    if hit is not None:
        return hit
    all_parts = partitions_of(n)
    if q == n:
        result = ({p.parts: (1 if p.r == 1 else 0) for p in all_parts}, frozenset())
    elif q == 1:
        result = ({p.parts: local_system_rank(p) for p in all_parts}, frozenset())
    else:
        proper = [m for m in admissible_partitions(n, q) if m.r > 1]
        flagged = set()
        ranks = {}
        for fine in all_parts:
            consumed = 0
            for coarse in proper:
                weight = local_system_rank(coarse)
                total = 0
                for blocks, count in grouping_types(fine, coarse):
                    prod = 1
                    for block in blocks:
                        sub_ranks, sub_flags = grouping_string_ranks(block.n, block.n * q // n)
                        flagged.update(sub_flags)
                        prod *= sub_ranks[block.parts]
                    total += count * prod
                if total and weight > 1:
                    flagged.add(coarse.parts)
                consumed += weight * total
            ranks[fine.parts] = local_system_rank(fine) - consumed
        result = (ranks, frozenset(flagged))
    _GROUPING_MEMO[key] = result
    return result


_SUBMULTISET_MEMO = {}


def _submultiset_rank(step, alpha):
    """Rank of the partition with residue multiplicities alpha at D = step, by sub-multisets.

    With k the largest part of lambda, the exponential formula gives

        rank(lambda) = sum over beta <= lambda - e_k with step | |beta| of
                       C(lambda - e_k, beta) * g(beta) * (r(lambda - beta) - 1)!

    with g(empty) = 1 and g(beta) = -rank(beta), every beta listed.
    """
    key = (step, alpha)
    value = _SUBMULTISET_MEMO.get(key)
    if value is not None:
        return value
    (top, top_count), others = alpha[0], alpha[1:]
    rest = ((top, top_count - 1),) + others
    r_rest = sum(count for _, count in rest)
    # (beta, |beta|, r(beta), C(lambda - e_k, beta)); a prefix is kept while
    # the parts still to come (weight room) can reach a multiple of step
    subs = [((), 0, 0, 1)]
    room = sum(part * count for part, count in rest)
    for part, count in rest:
        room -= part * count
        subs = [
            (beta + ((part, t),) if t else beta, size + part * t, r + t, coeff * math.comb(count, t))
            for beta, size, r, coeff in subs
            for t in range(count + 1)
            if (size + part * t + room) // step * step >= size + part * t
        ]
    value = math.factorial(r_rest)
    for beta, size, r, coeff in subs[1:]:  # subs[0] is the empty beta, the base
        value -= coeff * _submultiset_rank(step, beta) * math.factorial(r_rest - r)
    _SUBMULTISET_MEMO[key] = value
    return value


def submultiset_string_ranks(n, q):
    """Oracle: the rank table for rank n at gcd q | n by the sub-multiset recursion, parts -> rank."""
    if q == n:
        return {p.parts: (1 if p.r == 1 else 0) for p in partitions_of(n)}
    if q == 1:
        return {p.parts: local_system_rank(p) for p in partitions_of(n)}
    step = n // q
    ranks = {}
    for p in partitions_of(n):
        residues = Counter((part - 1) % step + 1 for part in p.parts)
        ranks[p.parts] = _submultiset_rank(step, tuple(sorted(residues.items(), reverse=True)))
    return ranks


def seed_string_rank(monkeypatch, alpha, value):
    """Start every string-rank table with rank ``value`` for the residue multiplicities ``alpha``."""
    rank = strings._rank

    def seeded(step, key, memo, sums):
        memo.setdefault(alpha, value)
        return rank(step, key, memo, sums)

    monkeypatch.setattr(strings, "_rank", seeded)


def _stringify(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    return obj


def json_text_reference(payload):
    """Oracle: the --json text of a payload, every int (not bool) turned into a decimal string first."""
    return json.dumps(_stringify(payload), indent=2)
