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

Every block sum is a multiple of D = n/q, and every sub-table (D*k, k)
has the same D.  The sum over groupings weighted by (|m|-1)! is Moebius
inversion over set partitions, so by the exponential formula (Stanley,
Enumerative Combinatorics 2, 5.1) the ranks for one D are the coefficients
of 1 - exp(P_D log(1 - X)), X = sum_k x_k, where P_D keeps the monomials
whose weight D divides.  The coefficients of P_D log(1 - X) see a part k
only through k mod D, so neither do the ranks: a partition has the rank of
its parts reduced into 1..D, itself a partition of a multiple of D.  The
library evaluates them by one prefix-sum recursion with one step per
distinct residue (_rank), memoised per table on the reduced
multiplicities, and enumerates neither groupings nor sub-multisets.

Dimension bookkeeping lives here too: stratum dimensions (nothing is
checked on construction; codimension = b1 and the other identities are
asserted in the tests), the stabilization codimension, and the graded
ranks binom(2*dim_S, l) * (r-1)! of a string.
"""

import math
from collections import Counter, namedtuple
from itertools import groupby, product

from .errors import ModelInconsistencyError
from .partitions import Partition, local_system_rank, partitions_of


class StratumDims(
    namedtuple(
        "StratumDims",
        "partition g dim_A dim_S codim_S component_genera genus_sum delta spectral_genus psi",
    )
):
    """Dimension data of the stratum of a partition at genus g.

    dim_A is the full base dimension n^2*(g-1)+1, dim_S the stratum
    dimension (the sum of the component base dimensions, which are also the
    genera of the normalized spectral curve components), delta the first
    Betti number of the spectral dual graph.  Nothing is checked on
    construction: codim_S = delta, dim_S = genus_sum and the arithmetic
    genus spectral_genus = genus_sum + delta are asserted in the tests.
    """

    __slots__ = ()


class StringTable(namedtuple("StringTable", "n d q ranks multiplier_partitions", defaults=((),))):
    """Rank table partition -> leading local-system rank for one (n, d)."""

    __slots__ = ()

    def rank(self, partition):
        return self.ranks[partition]


def stratum_dims(partition, genus):
    """Stratum dimensions, delta invariant and spectral genus for a partition."""
    from .graphs import spectral_edge_count

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


def _multiplicities(partition):
    """Multiplicity tuple ((part, count), ...) of a partition, parts decreasing."""
    return tuple((part, len(tuple(run))) for part, run in groupby(partition.parts))


def _residues(alpha, step):
    """Multiplicity tuple alpha with its parts reduced into 1..step, counts merged."""
    if alpha[0][0] <= step:
        return alpha
    counts = Counter()
    for part, count in alpha:
        counts[(part - 1) % step + 1] += count
    return tuple(sorted(counts.items(), reverse=True))


def _expand(alpha):
    """Partition with multiplicity tuple alpha."""
    return Partition(part for part, count in alpha for _ in range(count))


def _rank(step, alpha, memo, sums):
    """Rank of the partition lambda with multiplicities alpha in table (m, m // step).

    m is the weight of lambda, a multiple of step = D, and k its largest
    part.  With g(empty) = 1, g(beta) = -rank(beta) when step | |beta| and
    g(beta) = 0 otherwise, the exponential formula gives rank(lambda) =
    S(lambda - e_k) for

        S(delta) = sum over beta <= delta of C(delta, beta) * g(beta) * r(delta - beta)!
                 = g(delta) + sum_i delta_i * S(delta - e_i),

    the second line since r(gamma)!/gamma! are the coefficients of 1/(1 - Y).
    memo and sums hold rank and S of one table.  A negative value raises
    ModelInconsistencyError for lambda at (m, m // step), which itemises
    the first line's terms: (r - 1)! for the empty beta, the base, and the
    others as contributions.
    """
    value = memo.get(alpha)
    if value is not None:
        return value
    top, top_count = alpha[0]
    delta = (((top, top_count - 1),) if top_count > 1 else ()) + alpha[1:]
    value = _prefix_sum(step, delta, memo, sums)
    if value < 0:
        r_delta = sum(count for _, count in delta)
        contributions = {}
        for ts in product(*(range(count + 1) for _, count in delta)):
            beta = tuple((part, t) for (part, _), t in zip(delta, ts) if t)
            if beta and not sum(part * t for part, t in beta) % step:
                coeff = math.prod(math.comb(count, t) for (_, count), t in zip(delta, ts))
                term = coeff * _rank(step, beta, memo, sums) * math.factorial(r_delta - sum(ts))
                if term:
                    contributions[_expand(beta).parts] = term
        m = sum(part * count for part, count in alpha)
        raise ModelInconsistencyError(m, m // step, _expand(alpha), math.factorial(r_delta), contributions)
    memo[alpha] = value
    return value


def _prefix_sum(step, delta, memo, sums):
    """S(delta) of _rank, memoised in sums, which holds S(empty) = 1."""
    value = sums.get(delta)
    if value is None:
        value = -_rank(step, delta, memo, sums) if not sum(p * c for p, c in delta) % step else 0
        for i, (part, count) in enumerate(delta):
            smaller = delta[:i] + (((part, count - 1),) if count > 1 else ()) + delta[i + 1 :]
            value += count * _prefix_sum(step, smaller, memo, sums)
        sums[delta] = value
    return value


def _multiplier_partitions(n, q):
    """Coarsenings that enter some sub-table with weight (r-1)! > 1.

    Every admissible coarsening with r >= 3 parts enters its own row through
    its own one-part grouping, and 1^n reaches every sub-table (D*k, k) with
    k <= q, D = n/q.  So the set is every partition of some D*k, 3 <= k <= q,
    into at least three multiples of D; rows q = 1 and q = n have none.
    """
    if q in (1, n):
        return ()
    step = n // q
    flagged = [
        Partition(step * part for part in mu.parts)
        for k in range(3, q + 1)
        for mu in partitions_of(k)
        if mu.r >= 3
    ]
    return tuple(sorted(flagged, reverse=True))


def _ranks(n, q, parts, alphas):
    """Ranks of table (n, q) in the order of parts, the partitions of n; alphas their multiplicities."""
    if q == n:
        return [1 if p.r == 1 else 0 for p in parts]
    if q == 1:
        return [local_system_rank(p) for p in parts]
    step, memo, sums = n // q, {}, {(): 1}
    return [_rank(step, _residues(alpha, step), memo, sums) for alpha in alphas]


def string_table(n, d):
    """Rank table of the leading local systems for rank n, degree d.

    Depends on d only through q = gcd(n, d) (gcd(n, 0) = n).  Raises
    ModelInconsistencyError if the recursion would produce a negative rank.
    """
    if n < 2:
        raise ValueError("n must be at least 2, got %r" % n)
    q = math.gcd(n, d)
    parts = partitions_of(n)
    # the multiplicities are taken only by a row strictly between q = 1 and q = n
    ranks = dict(zip(parts, _ranks(n, q, parts, map(_multiplicities, parts))))
    return StringTable(n=n, d=d, q=q, ranks=ranks, multiplier_partitions=_multiplier_partitions(n, q))


def gcd_rows(n):
    """Row labels of the full table: 0 stands for q = n (degree 0), then proper divisors."""
    divisors = [q for q in range(1, n) if n % q == 0]
    return [0] + divisors


def _report_rows(n):
    """partitions_of(n), and (label, ranks in that order) for each gcd_rows(n) label."""
    if n < 2:
        raise ValueError("n must be at least 2, got %r" % n)
    parts = partitions_of(n)
    alphas = [_multiplicities(p) for p in parts]
    return parts, [(label, _ranks(n, math.gcd(n, label), parts, alphas)) for label in gcd_rows(n)]


def table_report(n):
    """Text table of string ranks, one row per gcd class, one column per partition.

    Row 0 is the degree-0 row (q = n); the remaining rows are the proper
    divisors of n in increasing order.  Columns follow the canonical
    partition order.  The output is deterministic byte for byte.
    """
    parts, report = _report_rows(n)
    headers = ["gcd"] + [str(p) for p in parts]
    rows = [[str(label)] + [str(rank) for rank in ranks] for label, ranks in report]
    widths = [max(len(headers[j]), max(len(row[j]) for row in rows)) for j in range(len(headers))]
    lines = ["  ".join(cell.ljust(widths[j]) for j, cell in enumerate(headers)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"
