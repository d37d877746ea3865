"""Hitchin-side dimension theory and the string-rank recursion.

The rank table: for rank n and degree d, every partition of n carries a
nonnegative integer, the rank of the leading local system of its string in
the decomposition over the reduced locus.  The table depends on d only
through q = gcd(n, d).  Boundary rows are forced: q = n (which includes
d = 0) gives the indicator of the one-part partition, and q = 1 gives the
full generic rank (r-1)! everywhere.  In between, the rank of a partition
is what remains of (r-1)! after subtracting, for every proper admissible
coarsening m of n into blocks, the contribution

    (|m|-1)!  *  sum over groupings of the labelled parts into blocks
                 realizing m  of  prod_j rank-table(block sum, scaled
                 degree)[block],

a product shape forced by the normalization of the stratum closure through
a product of smaller moduli spaces.  A negative intermediate value would
mean the reconstructed step is wrong on that instance; it raises
ModelInconsistencyError instead of being clamped.

Dimension bookkeeping lives here too: stratum dimensions and the
codimension = b1 identity, the stabilization codimension, and the graded
ranks binom(2*dim_S, l) * (r-1)! of a string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graphs import spectral_edge_count
from .partitions import (
    Partition,
    admissible_partitions,
    grouping_types,
    local_system_rank,
    partitions_of,
)


class ModelInconsistencyError(RuntimeError):
    """The recursion produced a negative rank; the instance is recorded."""

    def __init__(self, n, q, partition, base, contributions):
        self.n = n
        self.q = q
        self.partition = partition
        self.base = base
        self.contributions = contributions
        super().__init__(
            "negative rank for partition %s at n=%d, gcd=%d: (r-1)! = %d, contributions %r"
            % (partition, n, q, base, contributions)
        )


@dataclass(frozen=True)
class StratumDims:
    """Dimension data of the stratum of a partition at genus g.

    dim_A is the full base dimension n^2*(g-1)+1, dim_S the stratum
    dimension (the sum of the component base dimensions, which are also the
    genera of the normalized spectral curve components), delta the first
    Betti number of the spectral dual graph.  codim_S = delta is asserted on
    construction, as is the arithmetic-genus identity for the nodal spectral
    curve.
    """

    partition: object
    g: int
    dim_A: int
    dim_S: int
    codim_S: int
    component_genera: tuple
    genus_sum: int
    delta: int
    spectral_genus: int
    psi: int

    def __post_init__(self):
        if self.codim_S != self.delta:
            raise RuntimeError(
                "internal consistency failure: codim %d != b1 %d for %s"
                % (self.codim_S, self.delta, self.partition)
            )
        if self.dim_S != self.genus_sum:
            raise RuntimeError("internal consistency failure: dim_S != genus sum")


@dataclass(frozen=True)
class StringTable:
    """Rank table partition -> leading local-system rank for one (n, d)."""

    n: int
    d: int
    q: int
    ranks: dict
    multiplier_partitions: tuple = field(default=())

    def rank(self, partition):
        return self.ranks[partition]


def stratum_dims(partition, genus):
    """Stratum dimensions, delta invariant and spectral genus for a partition."""
    if genus < 2:
        raise ValueError("genus must be at least 2, got %r" % genus)
    n = partition.n
    gm1 = genus - 1
    dim_a = n * n * gm1 + 1
    genera = tuple(p * p * gm1 + 1 for p in partition.parts)
    dim_s = sum(genera)
    s = spectral_edge_count(partition, genus)
    delta = s - partition.r + 1
    gprime = n * n * gm1 + 1
    expected = sum(genera) + s - partition.r + 1
    if gprime != expected:
        raise RuntimeError(
            "internal consistency failure: arithmetic genus %d != %d for %s"
            % (gprime, expected, partition)
        )
    return StratumDims(
        partition=partition,
        g=genus,
        dim_A=dim_a,
        dim_S=dim_s,
        codim_S=dim_a - dim_s,
        component_genera=genera,
        genus_sum=dim_s,
        delta=delta,
        spectral_genus=gprime,
        psi=3 - 2 * gprime,
    )


def stabilization_codim(n, genus):
    """Codimension where the rank-n table stops influencing low cohomology.

    Twice the base dimension minus twice the maximum of
    r + (g-1) * sum(k_i^2) over all nontrivial multiplicity data
    sum m_i * k_i = n; the maximum is attained by one part n-1 and one part
    1, which gives 4*(g-1)*(n-1) - 2.
    """
    if n < 2:
        raise ValueError("n must be at least 2, got %r" % n)
    if genus < 2:
        raise ValueError("genus must be at least 2, got %r" % genus)
    return 4 * (genus - 1) * (n - 1) - 2


def ngo_string_graded_ranks(partition, genus):
    """Graded ranks of a string: level l carries binom(2*dim_S, l) * (r-1)!.

    The abelian part contributes the l-th exterior power of a rank
    2*genus_sum local system (first cohomology of the Jacobian of the
    normalization); the list runs over l = 0..2*dim_S.
    """
    dims = stratum_dims(partition, genus)
    width = 2 * dims.genus_sum
    base = local_system_rank(partition)
    return [math.comb(width, l) * base for l in range(width + 1)]


_TABLE_MEMO = {}


def _string_ranks(n, q):
    """Rank table for rank n at gcd q | n; returns (dict parts->rank, flagged multisets)."""
    key = (n, q)
    hit = _TABLE_MEMO.get(key)
    if hit is not None:
        return hit

    all_parts = partitions_of(n)
    if q == n:
        ranks = {p.parts: (1 if p.r == 1 else 0) for p in all_parts}
        result = (ranks, frozenset())
    elif q == 1:
        ranks = {p.parts: local_system_rank(p) for p in all_parts}
        result = (ranks, frozenset())
    else:
        proper = [
            m
            for m in admissible_partitions(n, q)
            if m.r > 1
        ]
        flagged = set()
        ranks = {}
        for fine in all_parts:
            base = local_system_rank(fine)
            contributions = {}
            for coarse in proper:
                weight = local_system_rank(coarse)
                total = 0
                for blocks, count in grouping_types(fine, coarse):
                    prod = 1
                    for block in blocks:
                        m_j = block.n
                        q_j = m_j * q // n
                        sub_ranks, sub_flags = _string_ranks(m_j, q_j)
                        flagged.update(sub_flags)
                        prod *= sub_ranks[block.parts]
                    total += count * prod
                if total:
                    contributions[coarse.parts] = weight * total
                    if weight > 1:
                        flagged.add(coarse.parts)
            value = base - sum(contributions.values())
            if value < 0:
                raise ModelInconsistencyError(n, q, fine, base, contributions)
            ranks[fine.parts] = value
        result = (ranks, frozenset(flagged))
    _TABLE_MEMO[key] = result
    return result


def string_table(n, d):
    """Rank table of the leading local systems for rank n, degree d.

    Depends on d only through q = gcd(n, d) (gcd(n, 0) = n).  Raises
    ModelInconsistencyError if the recursion would produce a negative rank.
    """
    if n < 2:
        raise ValueError("n must be at least 2, got %r" % n)
    q = math.gcd(n, d)
    ranks, flagged = _string_ranks(n, q)
    return StringTable(
        n=n,
        d=d,
        q=q,
        ranks={Partition(parts): value for parts, value in ranks.items()},
        multiplier_partitions=tuple(
            sorted((Partition(parts) for parts in flagged), key=lambda p: p.parts, reverse=True)
        ),
    )


def gcd_rows(n):
    """Row labels of the full table: 0 stands for q = n (degree 0), then proper divisors."""
    divisors = [q for q in range(1, n) if n % q == 0]
    return [0] + divisors


def table_report(n):
    """Text table of string ranks, one row per gcd class, one column per partition.

    Row 0 is the degree-0 row (q = n); the remaining rows are the proper
    divisors of n in increasing order.  Columns follow the canonical
    partition order.  The output is deterministic byte for byte.
    """
    if n < 2:
        raise ValueError("n must be at least 2, got %r" % n)
    parts = partitions_of(n)
    headers = ["gcd"] + [str(p) for p in parts]
    rows = []
    for label in gcd_rows(n):
        q = n if label == 0 else label
        table = string_table(n, q if label else 0)
        rows.append([str(label)] + [str(table.ranks[p]) for p in parts])
    widths = [max(len(headers[j]), max(len(row[j]) for row in rows)) for j in range(len(headers))]
    lines = ["  ".join(cell.ljust(widths[j]) for j, cell in enumerate(headers)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"
