"""Exact integer linear algebra: dense matrices, ranks, exactness checks.

All arithmetic is arbitrary-precision integer arithmetic; nothing here ever
touches floating point.  The central consumers are the quiver boundary maps
A: Z^s -> Z^(r-1) and their Gale duals B (ngostrings.graphs.gale_dual), which
fit into the exact sequence 0 -> Z^b1 -B-> Z^s -A-> Z^(r-1) -> 0 that
verify_exact certifies condition by condition.

The sparse rank elimination pivots deterministically: in the shortest live
row, on its entry of smallest magnitude, then fewest column rows, then
lowest column.  Its unit pivots double as the exactness certificate of
verify_exact, which decides from that certificate alone, and its pivot
columns are the faces the homology oracle clears (ngostrings.homology).  The
Smith normal form that would decide every other pair is a test oracle
(tests/conftest.py).
"""

import math
from collections import namedtuple
from itertools import compress

# Bound on the entries of a dense matrix built for a boundary map or a Gale
# dual, checked before anything is allocated.  Each entry is a pointer in a
# Python list, and verify_exact and the printed output walk every entry of
# B: at the bound, `gale` on 2,1,1 at genus 101 (1000 edges, s^2 = 10^6
# entries in A and B) answers in 0.32-0.36 s and 29 MiB, or 0.40-0.41 s and
# 62 MiB with --json (fresh process, 2-core Xeon, Python 3.11), while a
# 199 990-edge graph would need a 4*10^10-entry matrix.
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

    @property
    def rows(self):
        return len(self.data)

    @property
    def cols(self):
        return len(self.data[0]) if self.data else 0

    def __eq__(self, other):
        # equal rows make equal shapes
        return isinstance(other, IntMatrix) and self.data == other.data

    def __str__(self):
        if not self.data:
            return "[]"
        # a column's widest entry is its largest or its smallest one
        widths = [max(len(str(max(column))), len(str(min(column)))) for column in zip(*self.data)]
        line = "[" + " ".join("%%%dd" % w for w in widths) + "]"
        return "\n".join(line % tuple(row) for row in self.data)

    def __repr__(self):
        return "IntMatrix(%r)" % (self.data,)


def _eliminate(rows):
    """Fraction-free elimination of sparse rows (dicts col -> value): (pivots, unimodular).

    ``pivots`` lists the pivot columns in the order they were taken; the rank
    is their number, and the pivot rows and pivot columns of the input form
    a nonsingular minor.

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
    pivots = []
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
        pivots.append(pj)
    return pivots, unimodular


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
    its row count, and im(B) is saturated.  That unit-pivot certificate
    alone decides.  Boundary matrices and fundamental-cycle matrices are
    totally unimodular, and a pivot on a +-1 entry keeps a matrix totally
    unimodular (Schrijver, Theory of Linear and Integer Programming, ch.
    19), so every pair that boundary_matrix and gale_dual build has it.
    Raises ValueError when B has no certificate, or A has full row rank
    but none: only Smith invariants, which are not computed here, could
    decide such a pair.
    """
    if A.cols != B.rows:
        raise ValueError(
            "shapes do not compose: A is %dx%d, B is %dx%d"
            % (A.rows, A.cols, B.rows, B.cols)
        )
    b_rows = _sparse_rows(B.data)
    pivots_a, a_unimodular = _eliminate(_sparse_rows(A.data))
    pivots_b, b_unimodular = _eliminate(b_rows)
    rank_a, rank_b = len(pivots_a), len(pivots_b)
    a_surjective = rank_a == A.rows
    if (a_surjective and not a_unimodular) or not b_unimodular:
        raise ValueError(
            "%s has no unit-pivot certificate; only pairs with one are decided"
            % ("A" if a_surjective and not a_unimodular else "B")
        )
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
    b_injective = rank_b == B.cols
    spans_kernel = rank_b == A.cols - rank_a

    failures = []
    if not product_is_zero:
        failures.append("product A*B nonzero")
    if not b_injective:
        failures.append("B not injective")
    if not a_surjective:
        failures.append("A not surjective over Z")
    if not spans_kernel:
        failures.append("not spanning")
    return ExactnessReport(
        ok=not failures,
        product_is_zero=product_is_zero,
        b_injective=b_injective,
        a_surjective_over_z=a_surjective,
        spans_kernel=spans_kernel,
        # the certificate of B makes im(B) saturated
        saturated=True,
        failures=tuple(failures),
    )
