"""Exact integer linear algebra: Smith normal form, ranks, exactness checks.

All arithmetic is arbitrary-precision integer arithmetic; nothing here ever
touches floating point.  The central consumers are the quiver boundary maps
A: Z^s -> Z^(r-1) and their Gale duals B (ngostrings.graphs.gale_dual), which
fit into the exact sequence 0 -> Z^b1 -B-> Z^s -A-> Z^(r-1) -> 0 that
verify_exact certifies condition by condition.

Pivot selection is deterministic everywhere, so decompositions reproduce
bit for bit across platforms.  The Smith form pivots on the entry of
smallest magnitude, ties by position.  The sparse rank elimination pivots in
the shortest live row, on its entry of smallest magnitude, then fewest
column rows, then lowest column; its unit pivots double as the exactness
certificate of verify_exact.
"""

import math
from collections import namedtuple
from itertools import compress

# Bound on the entries of a dense matrix built for a boundary map or a Gale
# dual, checked before anything is allocated.  Each entry is a pointer in a
# Python list, and verify_exact and the printed output walk every entry of
# B: near the bound, `gale` on 2,1,1 at genus 100 (990 edges, s*(r-1+s) =
# 982 080) answers in about 0.35 s and 29 MiB, or 0.4-0.7 s and 55 MiB with
# --json (fresh process, 2-core Xeon, Python 3.11), while a 199 990-edge
# graph would need a 4*10^10-entry matrix.
MAX_DENSE_ENTRIES = 10**6


class IntMatrix:
    """Dense matrix of arbitrary-precision integers."""

    __slots__ = ("data",)

    def __init__(self, rows):
        data = [[int(v) for v in row] for row in rows]
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("rows have unequal lengths")
        self.data = data

    @classmethod
    def zeros(cls, rows, cols):
        """A rows x cols zero matrix, built without the conversion and checks of __init__."""
        self = object.__new__(cls)
        self.data = [[0] * cols for _ in range(rows)]
        return self

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rows(self):
        return len(self.data)

    @property
    def cols(self):
        return len(self.data[0]) if self.data else 0

    @property
    def entries(self):
        """Row-major tuple of all entries."""
        return tuple(v for row in self.data for v in row)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                "cannot multiply %dx%d by %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        out = [[0] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.data):
            for k, a in enumerate(row):
                if a:
                    orow = other.data[k]
                    oi = out[i]
                    for j, b in enumerate(orow):
                        if b:
                            oi[j] += a * b
        return IntMatrix(out)

    def is_zero(self):
        return all(v == 0 for row in self.data for v in row)

    def column(self, j):
        return [row[j] for row in self.data]

    def __str__(self):
        if not self.data:
            return "[]"
        # a column's widest entry is its largest or its smallest one
        widths = [max(len(str(max(column))), len(str(min(column)))) for column in zip(*self.data)]
        line = "[" + " ".join("%%%dd" % w for w in widths) + "]"
        return "\n".join(line % tuple(row) for row in self.data)

    def __repr__(self):
        return "IntMatrix(%r)" % (self.data,)


class SmithDecomposition(namedtuple("SmithDecomposition", "U S V")):
    """Unimodular U, V with U*A*V = S, S diagonal with divisibility chain."""

    __slots__ = ()

    @property
    def invariants(self):
        """Nonzero diagonal entries d1 | d2 | ... of S."""
        k = min(self.S.rows, self.S.cols)
        return tuple(self.S.data[i][i] for i in range(k) if self.S.data[i][i] != 0)

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
    """Smith normal form with transforms: returns U, S, V with U*A*V = S.

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

    return SmithDecomposition(U=IntMatrix(U), S=IntMatrix(S), V=IntMatrix(V))


def _eliminate(rows):
    """Fraction-free elimination of sparse rows (dicts col -> value): (rank, unimodular).

    Row combinations are integer cross-multiplications fr*row - fp*pivot row
    (fr, fp = p/g, a/g with g = gcd(p, a)) followed by a gcd renormalization,
    which preserves the row space over Q.  Each row is updated in place on the
    pivot row's columns only; when fr = +-1 it is not scaled and becomes
    row - fp*fr*pivot row = +-(the cross-multiplied row), so the magnitudes,
    and with them every pivot choice, are the same.  The pivot is an
    entry of the shortest live row (ties by index): the one of smallest
    magnitude, then with the fewest live rows in its column, then in the
    lowest column.  The rank does not depend on that choice.

    ``unimodular`` stays true while every pivot is +-1 and no row is divided
    by a gcd above 1.  Each step then replaces rows by row - a*p*pivot row,
    so the pivot rows and pivot columns of the input form a minor of size
    rank that equals +-1.  The gcd of those minors is the product of the
    Smith invariants (Cohen, GTM 138, section 2.4), so every one of them is 1.
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

    # (length, index) of every live row, stale entries skipped when popped
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
            if fr == 1 or fr == -1:
                c = fp * fr
            else:
                for j, v in row.items():
                    row[j] = fr * v
                c = fp
            for j, v in prow.items():
                nv = row.get(j, 0) - c * v
                if nv:
                    if j not in row:
                        col_rows.setdefault(j, set()).add(i)
                    row[j] = nv
                else:
                    del row[j]
                    col_rows[j].discard(i)
            if row:
                g = math.gcd(*row.values())
                if g > 1:
                    unimodular = False
                    work[i] = {j: v // g for j, v in row.items()}
                heappush(queue, (len(row), i))
            else:
                del work[i]
        rank += 1
    return rank, unimodular


def sparse_rank(rows):
    """Rank over Q of a matrix given as sparse rows (dicts col -> value).

    Exact and fraction-free; see _eliminate for the deterministic pivot rule.
    """
    return _eliminate(rows)[0]


def _sparse_rows(data):
    return [dict(compress(enumerate(row), row)) for row in data]


class ExactnessReport(
    namedtuple(
        "ExactnessReport",
        "ok product_is_zero b_injective a_surjective_over_z spans_kernel saturated failures",
    )
):
    """Condition-by-condition certificate for 0 -> Z^b1 -B-> Z^s -A-> Z^(r-1) -> 0."""

    __slots__ = ()

    def __bool__(self):
        return self.ok


def verify_exact(A, B):
    """Check that B resolves the kernel of A in an exact sequence of free Z-modules.

    Verifies A*B = 0, B injective, rank(B) = dim ker(A) (spanning over Q),
    A surjective over Z, and that the column lattice of B is saturated; a
    saturated full-rank sublattice of ker(A) is all of ker(A), so the five
    conditions together certify exactness.

    One elimination of the rows of A and one of the rows of B give the ranks
    and, when every pivot is a unit, a minor of full rank equal to +-1, so
    all Smith invariants are 1: A is onto Z^rows exactly when its rank is
    its row count, and im(B) is saturated.  Boundary matrices and their
    Gale duals are totally unimodular and always give this certificate.  A
    matrix that does not falls back to its Smith invariants, so the report
    is the same on every input.
    """
    if A.cols != B.rows:
        raise ValueError(
            "shapes do not compose: A is %dx%d, B is %dx%d"
            % (A.rows, A.cols, B.rows, B.cols)
        )
    b_rows = _sparse_rows(B.data)
    product_is_zero = True
    for row in A.data:
        # row * B, summed over the nonzero entries of row and of B only
        sums = {}
        for k, a in enumerate(row):
            if a:
                for j, b in b_rows[k].items():
                    sums[j] = sums.get(j, 0) + a * b
        if any(sums.values()):
            product_is_zero = False
            break
    rank_a, a_unimodular = _eliminate(_sparse_rows(A.data))
    rank_b, b_unimodular = _eliminate(b_rows)
    b_injective = rank_b == B.cols
    spans_kernel = rank_b == A.cols - rank_a
    # a unit minor of full rank makes every Smith invariant 1; only a matrix
    # whose elimination found none pays for a Smith form
    a_surjective = rank_a == A.rows and (
        a_unimodular or all(d == 1 for d in smith_normal_form(A).invariants)
    )
    saturated = b_unimodular or all(d == 1 for d in smith_normal_form(B).invariants)

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
