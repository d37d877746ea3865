"""Integer partitions and their symmetric-group constants.

Everything downstream is indexed by partitions of the rank n: spectral dual
graphs, strata of the Hitchin base, and the string-rank recursion.  This
module counts and enumerates partitions, filters the degree-admissible
subset (parts n_i with n_i*d/n integral), lists set partitions, and
evaluates the symmetric-group constants attached to a partition: the
generic local-system rank (r-1)! and the stabilizer order prod_i alpha_i!.
"""

import math
from collections import Counter
from itertools import islice

from .errors import ResourceLimitError

# partitions_of refuses any n with more partitions than this: p(41) = 44583
# and p(42) = 53174.  Up to n = 41 report, strings and partition all answer;
# the slowest, report --n 40, takes 1.5-1.9 s and 81 MiB (--json 2.2-3.1 s and
# 220 MiB) in a fresh process (2-core Xeon, Python 3.11).
MAX_PARTITIONS = 50_000


class Partition:
    """A partition of a positive integer, stored weakly decreasing.

    ``parts`` is the tuple of parts, ``n`` their sum, ``r`` the number of
    parts, and ``alpha`` the multiplicity map value -> count.  Instances are
    hashable and compare by their parts tuple, so sorting with
    ``reverse=True`` lists partitions in reverse-lexicographic order, the
    canonical enumeration order used throughout.
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(sorted((int(p) for p in parts), reverse=True))
        if not parts:
            raise ValueError("a partition needs at least one part")
        if parts[-1] < 1:
            raise ValueError("parts must be positive, got %r" % (parts,))
        self.parts = parts

    @classmethod
    def _from_sorted(cls, parts):
        """The partition of a weakly decreasing tuple of positive ints, unchecked."""
        partition = cls.__new__(cls)
        partition.parts = parts
        return partition

    @classmethod
    def from_string(cls, text):
        """Parse the serialized form, comma-separated parts like ``"2,1,1"``."""
        pieces = [p.strip() for p in text.split(",") if p.strip()]
        if not pieces:
            raise ValueError("empty partition string %r" % text)
        try:
            return cls(int(p) for p in pieces)
        except ValueError:
            raise ValueError("cannot parse partition from %r" % text) from None

    @property
    def n(self):
        return sum(self.parts)

    @property
    def r(self):
        return len(self.parts)

    @property
    def alpha(self):
        """Multiplicity map: alpha[i] = number of parts equal to i."""
        return Counter(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other):
        return self.parts < other.parts

    def __le__(self, other):
        return self.parts <= other.parts

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __str__(self):
        return ",".join(str(p) for p in self.parts)

    def __repr__(self):
        return "Partition(%r)" % (list(self.parts),)


def _partition_numbers():
    """Yield p(0), p(1), p(2), ... by Euler's pentagonal number recurrence."""
    p = [1]
    yield 1
    while True:
        m = len(p)
        total = 0
        k = 1
        pentagonal = 1  # k(3k-1)/2; the other pentagonal number is that plus k
        while pentagonal <= m:
            sign = 1 if k % 2 else -1
            total += sign * p[m - pentagonal]
            if pentagonal + k <= m:
                total += sign * p[m - pentagonal - k]
            k += 1
            pentagonal = k * (3 * k - 1) // 2
        p.append(total)
        yield total


def partition_count(n):
    """Number p(n) of partitions of ``n``, exact."""
    if n < 0:
        raise ValueError("n must be nonnegative, got %r" % n)
    return next(islice(_partition_numbers(), n, None))


def _partition_tuples(n):
    """Yield the partitions of n as weakly decreasing tuples, in reverse-lexicographic order.

    Each step drops the trailing 1s, lowers the last part left by one and
    refills greedily with parts no larger (Knuth, TAOCP 4A, 7.2.1.4,
    Algorithm P).
    """
    parts = [n]
    while True:
        yield tuple(parts)
        last = len(parts) - parts.count(1) - 1  # the last part above 1
        if last < 0:
            return
        k = parts[last] - 1
        full, rest = divmod(len(parts) - last + k, k)
        parts[last:] = [k] * full
        if rest:
            parts.append(rest)


def partitions_of(n):
    """All partitions of ``n`` in reverse-lexicographic order.

    The first entry is the one-part partition {n}, the last the all-ones
    partition; the order is deterministic and shared by every table in the
    package.
    """
    if n < 1:
        raise ValueError("n must be a positive integer, got %r" % n)
    # p(n) is nondecreasing, so this stops at n or at the first count past the bound
    if any(count > MAX_PARTITIONS for _, count in zip(range(int(n) + 1), _partition_numbers())):
        raise ResourceLimitError(
            "n=%d has more than %d partitions; refusing to enumerate them" % (n, MAX_PARTITIONS)
        )
    return list(map(Partition._from_sorted, _partition_tuples(int(n))))


def admissible_partitions(n, d):
    """Partitions of ``n`` whose every part ``p`` satisfies ``p*d/n`` integral.

    The result depends on ``d`` only through gcd(n, d) and is in bijection
    with the partitions of q = gcd(n, d): the admissible partitions are
    exactly those whose parts are multiples of n/q, so there are p(q) of
    them.  For d = 0 the constraint is vacuous.
    """
    if n < 2:
        raise ValueError("n must be at least 2, got %r" % n)
    return [p for p in partitions_of(n) if all(part * d % n == 0 for part in p.parts)]


def set_partitions(items):
    """Yield every set partition of ``items`` as a list of blocks.

    Blocks keep the input order of their elements and the enumeration order
    is deterministic.  The number of partitions of an n-element set is the
    Bell number B(n).
    """
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def local_system_rank(p):
    """Rank (r-1)! of the generic local system attached to an r-part partition."""
    return math.factorial(p.r - 1)


def stabilizer_order(p):
    """Order prod_i alpha_i! of the subgroup of S_r stabilizing the partition."""
    out = 1
    for count in p.alpha.values():
        out *= math.factorial(count)
    return out
