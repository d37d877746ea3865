"""Combinatorics of Lawrence toric varieties and hypertoric quiver varieties.

For a connected quiver Q with s edges and first Betti number b1, the doubled
quiver presents a Lawrence variety of dimension b1 + s containing a
hypertoric variety of dimension 2*b1, cut out by the circuit relations whose
coefficient rows are exactly the boundary matrix.  Vertex partitions of Q
index the strata of both spaces: the stratum of a partition has normal slice
modelled on the contraction of Q along it, codimension 2*b1(contraction) in
the hypertoric variety, resolution fibers of dimension b1(contraction), and
decomposition multiplicity equal to the sphere count of the contracted
cographic matroid complex, T_graphic(1, 0), which _sphere_count computes on
plain ints, with no Tutte polynomial and no memo.

For the spectral dual quiver of a partition, contracting along a vertex
partition gives the spectral dual graph of the coarsened partition, whose
parts are the block sums.  So every quantity of such a stratum but its
vertex partition depends only on the multiset mu of block sums, the
stratum's coarsening class, and the multiplicity is (blocks - 1)!:
spectral_strata takes them once per class, with no graph and no Tutte polynomial.

local_model_dims records the dimension ledger of the ambient moduli
embedding for a partition at genus g, one formula per constant.
"""

from collections import namedtuple
from math import factorial

from .errors import ResourceLimitError
from .graphs import (
    VertexPartition,
    _relabel,
    _spectral_runs,
    boundary_matrix,
    pairs_canonical_key,
    spectral_edge_count,
)
from .partitions import set_partitions

# _strata keeps a record for each of the Bell(r) vertex partitions, and
# Bell(12) / Bell(11) = 6.2.  In a fresh process (2-core Xeon, Python 3.11)
# strata --partition 1^11 --genus 2 takes 24 s and 820 MiB peak RSS, so
# twelve vertices would pass the budget of 10 minutes and 4 GiB.
MAX_STRATA_VERTICES = 11


class CircuitRelation(namedtuple("CircuitRelation", "index coefficients")):
    """One circuit relation sum_e a[e] * z_e * w_e, for a row index i in 2..r."""

    __slots__ = ()

    def __str__(self):
        pieces = []
        for e, a in enumerate(self.coefficients):
            if a == 0:
                continue
            term = "z%d*w%d" % (e + 1, e + 1)
            if a == 1:
                piece = term
            elif a == -1:
                piece = "-" + term
            else:
                piece = "%d*%s" % (a, term)
            if pieces and not piece.startswith("-"):
                pieces.append("+ " + piece)
            elif pieces:
                pieces.append("- " + piece[1:])
            else:
                pieces.append(piece)
        return " ".join(pieces) if pieces else "0"


class StratumRecord(
    namedtuple(
        "StratumRecord",
        "vp s_contracted deleted_loops b1_contracted codim_in_X codim_in_Y fiber_dim multiplicity",
    )
):
    """One stratum of the vertex-partition stratification.

    vp is the VertexPartition.  Contracting each of its blocks to a point
    and deleting the edges inside blocks leaves s_contracted edges and first
    Betti number b1_contracted; deleted_loops counts the deleted edges.
    """

    __slots__ = ()


class LocalModelDims(
    namedtuple("LocalModelDims", "n g partition s b1 d_dim c_dim dim_M dim_Y dim_X dim_Jbar")
):
    """Dimension constants of the local model of the moduli embedding.

    dim_M = 2*(n^2*(g-1)+1) is the moduli dimension, dim_Y = 2*b1 and
    dim_X = b1 + s the hypertoric and Lawrence dimensions for the spectral
    dual graph, dim_Jbar = 4*(n^2*(g-1)+1) - 3 the ambient family dimension,
    and d_dim, c_dim the two smooth-factor dimensions.  Nothing is checked
    on construction: dim_M = dim_Y + 2*d_dim + 2g + 2 and dim_Jbar = dim_X
    + c_dim are asserted in the tests.
    """

    __slots__ = ()


def circuit_relations(quiver):
    """The r-1 circuit relations; coefficient vectors are the boundary matrix rows."""
    if not quiver.is_connected():
        raise ValueError("circuit relations require a connected quiver")
    if quiver.vertex_count == 1:
        return []
    A = boundary_matrix(quiver)
    return [
        CircuitRelation(index=i + 2, coefficients=tuple(A.data[i]))
        for i in range(A.rows)
    ]


def _strata(r, stratum_of):
    """Records of the vertex partitions of range(r), sorted by (codimension, key, blocks).

    stratum_of(vp) -> (label, fields) runs once per vertex partition, and
    fields() -> (s, deleted loops, key, multiplicity) once per label.
    """
    if r > MAX_STRATA_VERTICES:
        raise ResourceLimitError(
            "stratum enumeration is capped at MAX_STRATA_VERTICES = %d vertices (Bell growth); got %d"
            % (MAX_STRATA_VERTICES, r)
        )
    classes = {}  # label -> (sort key head, record fields after vp)
    keyed = []
    for blocks in set_partitions(range(r)):
        # the blocks of set_partitions are disjoint and each in order: only
        # the block order needs sorting, and nothing needs checking
        vp = VertexPartition._from_sorted(sorted(map(tuple, blocks)))
        label, fields_of = stratum_of(vp)
        stratum = classes.get(label)
        if stratum is None:
            s, dropped, key, multiplicity = fields_of()
            b1 = s - len(vp) + 1  # contracting a connected quiver leaves it connected
            fields = (s, dropped, b1, b1 + s, 2 * b1, b1, multiplicity)
            stratum = classes[label] = ((2 * b1, b1 + s, key), fields)
        head, fields = stratum
        keyed.append((head + (vp.blocks,), StratumRecord(vp, *fields)))
    keyed.sort(key=lambda item: item[0])
    return [rec for _, rec in keyed]


def _sphere_count(r, pairs):
    """T_graphic(1, 0) of the connected multigraph with these pair multiplicities.

    b1 = 0 (T = x^(r-1)) counts 1 with no work: the open stratum always has
    multiplicity 1.  Otherwise T(1, 0) = |[q^1] chi(q)|, chi the chromatic
    polynomial, which parallel edges leave as it is (Greene-Zaslavsky,
    Trans. AMS 280, 1983).  By Whitney's expansion that is |c(V)|, where on
    the vertex sets S that contain vertex 0, c(S) = [S independent] - sum
    c(S - I) over the nonempty independent I in S - {0}: at most 3^(r-1)
    steps on bitmasks, c indexed by S - {0} shifted down one bit.  A loop
    leaves its vertex in no independent set, so c(V) = 0 = T(1, 0).
    """
    if sum(pairs.values()) < r:
        return 1
    neighbours = [0] * r
    for u, v in pairs:
        neighbours[u] |= 1 << v
        neighbours[v] |= 1 << u
    independent = [True] * (1 << r)
    for mask in range(1, 1 << r):
        v = (mask & -mask).bit_length() - 1
        independent[mask] = independent[mask & (mask - 1)] and not (neighbours[v] & mask)
    c = [0] * (1 << (r - 1))
    for rest in range(len(c)):
        total = int(independent[rest << 1 | 1])
        part = rest
        while part:
            if independent[part << 1]:
                total -= c[rest ^ part]
            part = (part - 1) & rest
        c[rest] = total
    return abs(c[-1])


def enumerate_strata(quiver):
    """All strata of the vertex-partition stratification, open stratum first.

    One record per vertex partition; the open stratum is the one-block
    partition (its contraction is a point).  Multiplicities are sphere
    counts T_graphic(1, 0) of the contracted cographic matroid complexes, by
    _sphere_count once per canonical key of the contraction.  Output is
    sorted by (codimension, canonical key, blocks).
    """
    if not quiver.is_connected():
        raise ValueError("stratum enumeration requires a connected quiver")
    pairs = quiver.pair_multiplicities()
    s = quiver.edge_count

    # the contraction along vp: its blocks numbered as in vp.block_of(), the
    # edges inside a block deleted and counted; its canonical key is the label
    def stratum_of(vp):
        contracted, dropped = _relabel(pairs, vp.block_of())
        key = pairs_canonical_key(len(vp), contracted)
        return key, lambda: (s - dropped, dropped, key, _sphere_count(len(vp), contracted))

    return _strata(quiver.vertex_count, stratum_of)


def spectral_strata(partition, genus):
    """enumerate_strata(spectral_dual_graph(partition, genus)), without building the graph.

    Vertex i stands for partition.parts[i]; blocks A and B are joined by
    N_A N_B (2g - 2) edges, N the block sums, so the contraction is the
    spectral dual graph of mu, the sorted block sums.  Its multiplicity is
    (blocks - 1)!, the T(1, 0) of any graph whose simple graph is complete.
    Refuses genus < 2 and more than MAX_STRATA_VERTICES parts before any work.
    """
    if genus < 2:
        raise ValueError("genus must be at least 2, got %r" % genus)
    total = spectral_edge_count(partition, genus)
    part_of = partition.parts.__getitem__

    def fields(mu):
        pairs = dict(zip(*_spectral_runs(mu, genus)))
        s = sum(pairs.values())
        return s, total - s, pairs_canonical_key(len(mu), pairs), factorial(len(mu) - 1)

    def stratum_of(vp):
        mu = tuple(sorted([sum(map(part_of, b)) for b in vp.blocks]))
        return mu, lambda: fields(mu)

    return _strata(partition.r, stratum_of)


def local_model_dims(partition, genus):
    """Dimension ledger of the local model of the moduli embedding at a stratum."""
    if genus < 2:
        raise ValueError("genus must be at least 2, got %r" % genus)
    n = partition.n
    s = spectral_edge_count(partition, genus)
    b1 = s - partition.r + 1
    gm1 = genus - 1
    return LocalModelDims(
        n=n,
        g=genus,
        partition=partition,
        s=s,
        b1=b1,
        d_dim=(n * n - 1) * gm1 - 1 - b1,
        c_dim=4 * n * n * gm1 + 1 - b1 - s,
        dim_M=2 * (n * n * gm1 + 1),
        dim_Y=2 * b1,
        dim_X=b1 + s,
        dim_Jbar=4 * (n * n * gm1 + 1) - 3,
    )
