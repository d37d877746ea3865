"""Multigraphs, spectral dual graphs, and canonical graph keys.

A MultiGraph has positionally labelled edges: the edge list order is part of
the identity, because boundary matrices, matroid ground sets and circuit
relations all refer to edges by position.  Each edge is a (source, target)
pair, so a MultiGraph is also the quiver with those orientations:
boundary_matrix, gale_dual and circuit_relations read the pairs that way,
and everything else ignores the order within a pair.  The edges are stored
in order as maximal runs of equal consecutive pairs, so k consecutive
parallel edges cost one pair and one count.  The spectral dual graph of a
partition {n_i} at genus g has one vertex per part and n_i*n_j*(2g-2)
parallel edges between distinct vertices i, j: one run per pair of parts.

canonical_key produces a byte string invariant under vertex relabelling and
edge reordering; it groups and sorts the rows of stratum tables.  It is a
brute-force minimal adjacency encoding with color refinement, twin pruning
and prefix pruning, which is entirely adequate at the sizes arising here
(at most a dozen vertices).
"""

from collections import Counter
from itertools import chain, combinations, repeat, starmap
from operator import le

from .errors import ResourceLimitError
from .intlinalg import MAX_DENSE_ENTRIES, IntMatrix

GRAPH_FORMAT = "graph/1"

# Bound on vertices + edges of a spectral dual graph or a graph file, checked
# before the graph is built, and of a graph printed as DOT.  At the bound
# (1,1 at genus 500 000), `graph` prints its costliest output, --json, in
# about 3-4 s and 200 MiB (fresh process, 2-core Xeon, Python 3.11), and
# `tutte` answers a bundle of a million terms.  The spectral dual graphs of
# interest stay well below it (2,1,1 at genus 20000 has 199 990 edges).
# `strata` on a partition builds no graph and does not check it.
MAX_GRAPH_SIZE = 10**6


class MultiGraph:
    """Multigraph on vertices 0..r-1, parallel edges and loops allowed; each edge a (source, target) pair.

    The edges are kept as maximal runs of equal consecutive pairs: _pairs
    holds one pair per run, each unlike the next, and _counts the run
    lengths.  ``edges`` expands them each time it is read.
    """

    __slots__ = ("vertex_count", "_pairs", "_counts")

    def __init__(self, vertex_count, edges):
        vertex_count = int(vertex_count)
        if vertex_count < 1:
            raise ValueError("vertex_count must be positive, got %r" % vertex_count)
        pairs, counts = [], []
        last = None
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError("edge (%d, %d) out of range for %d vertices" % (u, v, vertex_count))
            if (u, v) == last:
                counts[-1] += 1
            else:
                last = (u, v)
                pairs.append(last)
                counts.append(1)
        self.vertex_count = vertex_count
        self._pairs, self._counts = tuple(pairs), tuple(counts)

    @classmethod
    def _of_runs(cls, vertex_count, pairs, counts):
        """The graph of the runs given, unchecked: pairs in range, each unlike the next, counts positive."""
        graph = cls.__new__(cls)
        graph.vertex_count, graph._pairs, graph._counts = vertex_count, pairs, counts
        return graph

    @property
    def edges(self):
        """The tuple of (source, target) pairs, one per edge, in order."""
        return tuple(chain.from_iterable(map(repeat, self._pairs, self._counts)))

    @property
    def edge_count(self):
        return sum(self._counts)

    def pair_multiplicities(self):
        """Counter mapping unordered pairs (min,max) to multiplicities, in order of first edge; loops as (v,v)."""
        pairs = dict(zip(self._pairs, self._counts))
        if len(pairs) == len(self._pairs) and all(starmap(le, pairs)):
            return Counter(pairs)  # runs of distinct pairs, each (min, max)
        out = Counter()
        for (u, v), k in zip(self._pairs, self._counts):
            out[(u, v) if u <= v else (v, u)] += k
        return out

    def is_connected(self):
        # a spanning tree needs r - 1 edges; so per-vertex work below stays O(s)
        if self.vertex_count > self.edge_count + 1:
            return False
        return pairs_connected(self.vertex_count, self._pairs)

    def __eq__(self, other):
        return (
            isinstance(other, MultiGraph)
            and self.vertex_count == other.vertex_count
            and self._pairs == other._pairs
            and self._counts == other._counts
        )

    def __hash__(self):
        return hash((self.vertex_count, self._pairs, self._counts))

    def __repr__(self):
        return "MultiGraph(%d, %r)" % (self.vertex_count, list(self.edges))


def _relabel(pairs, index):
    """(pairs, loops) of a multiplicity map {(u, v): k} with vertex v renumbered index[v].

    index[v] is None to delete v with its edges.  An edge whose two ends get
    one number is counted in loops and not kept; every key comes out as
    (a, b) with a < b, in the order of its first edge.
    """
    out = {}
    loops = 0
    for (u, v), k in pairs.items():
        a, b = index[u], index[v]
        if a is None or b is None:
            continue
        if a == b:
            loops += k
        else:
            pair = (a, b) if a < b else (b, a)
            out[pair] = out.get(pair, 0) + k
    return out, loops


def _links(r, pairs):
    """Per vertex 0..r-1, the list of (neighbour, multiplicity) of a multiplicity map; loops left out."""
    links = [[] for _ in range(r)]
    for (u, v), k in pairs.items():
        if u != v:
            links[u].append((v, k))
            links[v].append((u, k))
    return links


def pairs_connected(r, pairs):
    """True iff the pairs (u, v), such as the keys of a multiplicity map, join vertices 0..r-1 into one component.

    A union-find that stops once r - 1 pairs have joined two components: on
    a spectral dual graph, after the pairs of vertex 0.
    """
    root = list(range(r))
    joins = r - 1
    for u, v in pairs:
        if not joins:
            break
        while root[u] != u:
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u != v:
            root[u] = v
            joins -= 1
    return not joins


class VertexPartition:
    """Set partition of {0..r-1} into nonempty disjoint blocks."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        norm = []
        seen = set()
        for block in blocks:
            b = tuple(sorted(int(v) for v in block))
            if not b:
                raise ValueError("blocks must be nonempty")
            for v in b:
                if v in seen:
                    raise ValueError("vertex %d appears in two blocks" % v)
                seen.add(v)
            norm.append(b)
        if not norm:
            raise ValueError("a vertex partition needs at least one block")
        norm.sort(key=lambda b: b[0])
        self.blocks = tuple(norm)

    @classmethod
    def _from_sorted(cls, blocks):
        """The partition of the given blocks, unchecked: disjoint, each sorted, in order of first vertex."""
        vp = cls.__new__(cls)
        vp.blocks = tuple(blocks)
        return vp

    @classmethod
    def singletons(cls, r):
        return cls([(v,) for v in range(r)])

    @classmethod
    def one_block(cls, r):
        return cls([tuple(range(r))])

    def block_of(self):
        """Map vertex -> index of its block (blocks sorted by minimum element)."""
        out = {}
        for i, b in enumerate(self.blocks):
            for v in b:
                out[v] = i
        return out

    def __eq__(self, other):
        return isinstance(other, VertexPartition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __len__(self):
        return len(self.blocks)

    def __str__(self):
        return "|".join(",".join(str(v) for v in b) for b in self.blocks)

    def __repr__(self):
        return "VertexPartition(%r)" % (list(self.blocks),)


def _check_size(r, s, what):
    if r + s > MAX_GRAPH_SIZE:
        raise ResourceLimitError(
            "%s has %d vertices and %d edges; the limit is %d in all" % (what, r, s, MAX_GRAPH_SIZE)
        )


def _spectral_runs(parts, genus):
    """(pairs, counts) of the spectral dual graph's runs: (i, j), i < j, lexicographic, and n_i n_j (2g - 2)."""
    w = 2 * genus - 2
    pairs = tuple(combinations(range(len(parts)), 2))
    return pairs, tuple(chain.from_iterable(map((n * w).__mul__, parts[i + 1 :]) for i, n in enumerate(parts)))


def spectral_dual_graph(partition, genus):
    """Dual graph of a generic nodal spectral curve for the given partition.

    One vertex per part, and n_i * n_j * (2g - 2) parallel edges between
    distinct vertices i and j; no loops.  Edges are listed in lexicographic
    pair order, consecutive within each pair, and each is oriented from the
    smaller vertex index: one run per pair, O(r^2) at any genus.  Requires
    genus >= 2 (the canonical bundle must be ample).  Raises
    ResourceLimitError before building anything when r + s exceeds
    MAX_GRAPH_SIZE.
    """
    if genus < 2:
        raise ValueError("genus must be at least 2, got %r" % genus)
    s = spectral_edge_count(partition, genus)
    _check_size(partition.r, s, "the spectral dual graph of %s at genus %d" % (partition, genus))
    return MultiGraph._of_runs(partition.r, *_spectral_runs(partition.parts, genus))


def spectral_edge_count(partition, genus):
    """Edge count s = (2g-2) * sum_{i<j} n_i n_j of the spectral dual graph, without building it."""
    squares = sum(p * p for p in partition.parts)
    return (genus - 1) * (partition.n * partition.n - squares)


def betti1(graph):
    """First Betti number s - r + 1 of a connected multigraph."""
    if not graph.is_connected():
        raise ValueError("betti1 requires a connected graph")
    return graph.edge_count - graph.vertex_count + 1


def _dense_shape(r, s, connected, gale=False):
    """(r, s) after the refusals of boundary_matrix, and with gale those of gale_dual, in their order.

    ``connected()`` says whether the quiver is connected; it is asked only
    once the boundary matrix fits MAX_DENSE_ENTRIES.
    """
    if r < 2:
        raise ValueError("boundary matrix needs at least 2 vertices")
    if (r - 1) * s > MAX_DENSE_ENTRIES:
        raise ResourceLimitError(
            "the boundary matrix of %d vertices and %d edges has %d dense entries; the limit is %d"
            % (r, s, (r - 1) * s, MAX_DENSE_ENTRIES)
        )
    if not connected():
        raise ValueError("boundary matrix requires a connected quiver")
    # A and B hold (r - 1) s + s b1 = s^2 entries together
    if gale and s * s > MAX_DENSE_ENTRIES:
        raise ResourceLimitError(
            "the Gale dual of a %dx%d matrix needs %d dense entries; the limit is %d"
            % (r - 1, s, s * s, MAX_DENSE_ENTRIES)
        )
    return r, s


def boundary_matrix(quiver):
    """Boundary map e -> source(e) - target(e) in the basis v1-v2, ..., v1-vr.

    The result is an (r-1) x s integer matrix; column k encodes edge k, and
    loops give zero columns.  Requires a connected quiver with r >= 2.
    Raises ResourceLimitError before building anything when (r-1)*s exceeds
    MAX_DENSE_ENTRIES.
    """
    r, s = _dense_shape(quiver.vertex_count, quiver.edge_count, quiver.is_connected)
    A = IntMatrix.zeros(r - 1, s)
    rows = A.data
    for col, (u, v) in enumerate(quiver.edges):
        if u == v:
            continue
        # source - target = (v1 - v_target) - (v1 - v_source)
        if v >= 1:
            rows[v - 1][col] += 1
        if u >= 1:
            rows[u - 1][col] -= 1
    return A


def gale_dual(quiver):
    """Gale dual B of the boundary matrix A of a connected quiver: an s x b1 matrix.

    The columns of B are the fundamental cycles of the spanning tree that
    Kruskal's greedy scan picks taking edges from the last index down, one
    per non-tree edge in increasing order, with coefficient +1 on that edge
    and +-1 on the tree path back, by orientation.  They are a basis of
    ker(A) over Z, so A*B = 0 and Z^s/im(B) is torsion free.  A non-tree
    edge was passed over because later edges already joined its ends, so it
    is the smallest index on its cycle and on no other: the columns are in
    reduced echelon form with unit pivots, which makes them the Hermite
    basis of ker(A), canonical for the lattice (Oxley, Matroid Theory, on
    fundamental circuits; Cohen, GTM 138, section 2.4).

    Refuses, before anything dense is built, what boundary_matrix refuses
    (in the same order) and then, with ResourceLimitError, an s*s above
    MAX_DENSE_ENTRIES: A and B hold (r-1)*s + s*b1 = s*s entries together.
    """
    r, s = _dense_shape(quiver.vertex_count, quiver.edge_count, quiver.is_connected, gale=True)
    edges = quiver.edges
    root = list(range(r))

    def find(x):
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    adjacent = [[] for _ in range(r)]
    chords = []
    for k in reversed(range(s)):
        u, v = edges[k]
        a, b = find(u), find(v)
        if a == b:
            chords.append(k)
        else:
            root[a] = b
            adjacent[u].append((v, k))
            adjacent[v].append((u, k))
    # root the tree at vertex 0: parent vertex, edge to the parent, depth
    parent, up, depth = [0] * r, [0] * r, [-1] * r
    depth[0] = 0
    stack = [0]
    while stack:
        x = stack.pop()
        for y, k in adjacent[x]:
            if depth[y] < 0:
                parent[y], up[y], depth[y] = x, k, depth[x] + 1
                stack.append(y)
    B = IntMatrix.zeros(s, len(chords))
    rows = B.data
    for j, k in enumerate(reversed(chords)):
        # the cycle runs from u to v along edge k, then back through the
        # tree: up from v, where an edge counts +1 if its source is the
        # lower end, and down to u, where it counts +1 if its target is
        rows[k][j] = 1
        u, v = edges[k]
        while u != v:
            if depth[v] >= depth[u]:
                e = up[v]
                rows[e][j] = 1 if edges[e][0] == v else -1
                v = parent[v]
            else:
                e = up[u]
                rows[e][j] = 1 if edges[e][1] == u else -1
                u = parent[u]
    return B


def _refined_colors(r, pairs):
    """Stable 1-dimensional color refinement; returns the list of dense color ids by vertex."""
    neigh = _links(r, pairs)
    keys = [(pairs.get((v, v), 0), tuple(sorted(k for _, k in neigh[v]))) for v in range(r)]
    while True:
        ids = {key: i for i, key in enumerate(sorted(set(keys)))}
        colors = [ids[key] for key in keys]
        if len(ids) == r:
            return colors
        keys = [(colors[v], tuple(sorted([(k, colors[u]) for u, k in neigh[v]]))) for v in range(r)]
        # each round refines the last, so an equal class count is a fixed point
        if len(set(keys)) == len(ids):
            return colors


def canonical_key(graph):
    """Canonical byte string: equal for isomorphic multigraphs, distinct otherwise."""
    return pairs_canonical_key(graph.vertex_count, graph.pair_multiplicities())


def pairs_canonical_key(r, pairs):
    """canonical_key of the multigraph on 0..r-1 with multiplicities {(u, v): k}, u <= v.

    Every k must be positive; loops are the (v, v) entries.  Minimizes the
    row-by-row adjacency encoding over all vertex orders compatible with the
    refined color classes, pruning lexicographically dominated prefixes,
    repeated (placed-set, prefix) states and twin vertices.  The encoding
    contains the full multiplicity matrix, so the key determines the graph
    up to isomorphism.
    """
    adj = [[0] * r for _ in range(r)]
    for (u, v), k in pairs.items():
        adj[u][v] = adj[v][u] = k
    colors = _refined_colors(r, pairs)
    classes = len(set(colors))
    class_seq = sorted(colors)
    members = [[] for _ in range(classes)]
    for v in range(r):
        members[colors[v]].append(v)
    # twins: equal loops and equal multiplicities to every other vertex, so
    # exchangeable by an automorphism; twin[v] is the least vertex of v's class
    twin = list(range(r))
    for v in range(r):
        row = adj[v]
        for w in members[colors[v]]:
            if w == v:
                break
            if twin[w] != w or row[v] != adj[w][w]:
                continue
            other = adj[w]
            if all(row[x] == other[x] for x in range(r) if x != v and x != w):
                twin[v] = w
                break

    best = None
    visited = set()

    def dfs(placed, mask, prefix):
        nonlocal best
        k = len(placed)
        if best is not None and prefix > best[: len(prefix)]:
            return
        if k == r:
            if best is None or prefix < best:
                best = prefix
            return
        state = (mask, prefix)
        if state in visited:
            return
        if len(visited) < (1 << 18):
            visited.add(state)
        # one representative per twin class, the least unplaced vertex
        tried = set()
        for v in members[class_seq[k]]:
            if mask >> v & 1 or twin[v] in tried:
                continue
            tried.add(twin[v])
            row = adj[v]
            dfs(placed + (v,), mask | 1 << v, prefix + (row[v],) + tuple(map(row.__getitem__, placed)))

    dfs((), 0, ())
    return repr((r, best)).encode("ascii")


def _edge_texts(graph, text):
    """text % (u, v) for each edge (u, v) in order, formatted once per run and repeated."""
    return chain.from_iterable(map(repeat, map(text.__mod__, graph._pairs), graph._counts))


def to_dot(graph, directed=False):
    """DOT text for visualization; with directed, a digraph of the (source, target) orientations."""
    _check_size(graph.vertex_count, graph.edge_count, "a graph to print as DOT")
    arrow = "->" if directed else "--"
    kind = "digraph" if directed else "graph"
    lines = ["%s G {" % kind]
    for v in range(graph.vertex_count):
        lines.append("  %d;" % v)
    lines.extend(_edge_texts(graph, "  %d " + arrow + " %d;"))
    lines.append("}")
    return "\n".join(lines) + "\n"


def dump_graph(graph):
    """Serialize a graph to the versioned text format.

    The text is json.dumps of {"format", "vertices", "edges"} with indent=2,
    plus a newline, byte for byte, joined from one string per run repeated.
    """
    edges = "[]"
    if graph._pairs:
        edges = "[\n" + ",\n".join(_edge_texts(graph, "    [\n      %d,\n      %d\n    ]")) + "\n  ]"
    return '{\n  "format": "%s",\n  "vertices": %d,\n  "edges": %s\n}\n' % (GRAPH_FORMAT, graph.vertex_count, edges)


def load_graph(text):
    """Parse the versioned text format; returns a MultiGraph, its pairs read as (source, target).

    Raises ResourceLimitError before building the graph when its vertices
    plus edges exceed MAX_GRAPH_SIZE.
    """
    import json

    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError("not a graph file: %s" % exc) from None
    if not isinstance(payload, dict) or payload.get("format") != GRAPH_FORMAT:
        raise ValueError("unsupported graph format %r" % (payload.get("format") if isinstance(payload, dict) else None,))
    try:
        vertices = payload["vertices"]
        edges = payload["edges"]
    except KeyError:
        raise ValueError("graph file needs 'vertices' and 'edges' fields") from None
    if not _is_int(vertices):
        raise ValueError("graph file: 'vertices' must be an integer, got %r" % (vertices,))
    # json.loads yields exact ints and lists, and type(True) is bool, not int
    if not isinstance(edges, list) or not all(
        type(e) is list and len(e) == 2 and type(e[0]) is int and type(e[1]) is int for e in edges
    ):
        raise ValueError("graph file: 'edges' must be a list of [u, v] integer pairs")
    _check_size(vertices, len(edges), "the graph file")
    return MultiGraph(vertices, edges)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)
