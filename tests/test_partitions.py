import math

import pytest

from ngostrings.errors import ResourceLimitError
from ngostrings.partitions import (
    MAX_PARTITIONS,
    Partition,
    admissible_partitions,
    local_system_rank,
    partitions_of,
    set_partitions,
    stabilizer_order,
)

from conftest import (
    grouping_count,
    grouping_enumerate,
    grouping_types,
    partition_count,
    partition_tuples_reference,
)


def count_partitions(n):
    """Independent partition counter: classical two-variable recursion."""
    table = {}

    def p(n, k):
        if n == 0:
            return 1
        if k == 0:
            return 0
        if (n, k) not in table:
            table[(n, k)] = p(n, k - 1) + (p(n - k, min(n - k, k)) if n >= k else 0)
        return table[(n, k)]

    return p(n, n)


def bell_number(n):
    """Independent Bell numbers via the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def restricted_growth_partitions(items):
    """Independent set-partition enumeration via restricted growth strings."""
    items = list(items)
    n = len(items)
    if n == 0:
        yield []
        return
    rgs = [0] * n

    def rec(i, maxval):
        if i == n:
            blocks = {}
            for idx, b in enumerate(rgs):
                blocks.setdefault(b, []).append(items[idx])
            yield [blocks[k] for k in sorted(blocks)]
            return
        for b in range(maxval + 2):
            rgs[i] = b
            yield from rec(i + 1, max(maxval, b))

    yield from rec(1, 0)


class TestPartition:
    def test_canonical_storage(self):
        p = Partition([1, 2, 1])
        assert p.parts == (2, 1, 1)
        assert p.n == 4
        assert p.r == 3
        assert p.alpha == {2: 1, 1: 2}

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            Partition([])
        with pytest.raises(ValueError):
            Partition([2, 0])
        with pytest.raises(ValueError):
            Partition([-1, 3])

    def test_string_round_trip(self):
        p = Partition.from_string("2,1,1")
        assert str(p) == "2,1,1"
        assert p == Partition([1, 1, 2])
        with pytest.raises(ValueError):
            Partition.from_string("")
        with pytest.raises(ValueError):
            Partition.from_string("a,b")

    def test_hashable(self):
        assert {Partition([2, 1]): 5}[Partition([1, 2])] == 5


class TestPartitionsOf:
    def test_one(self):
        assert partitions_of(1) == [Partition([1])]

    def test_four_classical(self):
        got = [p.parts for p in partitions_of(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_eight_has_22(self):
        assert len(partitions_of(8)) == 22

    @pytest.mark.parametrize("n", range(1, 13))
    def test_count_matches_oracle(self, n):
        parts = partitions_of(n)
        assert len(parts) == count_partitions(n)
        assert len(set(p.parts for p in parts)) == len(parts)
        assert all(p.n == n for p in parts)
        # reverse-lexicographic order
        tuples = [p.parts for p in parts]
        assert tuples == sorted(tuples, reverse=True)

    def test_same_as_recursive_oracle(self):
        for n in range(1, 31):
            got = [p.parts for p in partitions_of(n)]
            assert got == partition_tuples_reference(n), n
            assert len(got) == partition_count(n)

    def test_invalid(self):
        with pytest.raises(ValueError):
            partitions_of(0)
        with pytest.raises(ValueError):
            partitions_of(-3)

    def test_refuses_more_than_max_partitions(self):
        largest = max(n for n in range(1, 100) if partition_count(n) <= MAX_PARTITIONS)
        # the values the MAX_PARTITIONS comment quotes
        assert (largest, partition_count(41), partition_count(42)) == (41, 44583, 53174)
        assert len(partitions_of(largest)) == partition_count(largest)
        for n in (largest + 1, 1000, 10**9):
            with pytest.raises(ResourceLimitError):
                partitions_of(n)


class TestPartitionCount:
    def test_against_two_variable_recursion(self):
        for n in range(0, 60):
            assert partition_count(n) == count_partitions(n)

    def test_known_values(self):
        assert partition_count(100) == 190569292
        assert partition_count(1000) == 24061467864032622473692149727991

    def test_negative(self):
        with pytest.raises(ValueError):
            partition_count(-1)


class TestAdmissible:
    def test_four_two(self):
        got = [p.parts for p in admissible_partitions(4, 2)]
        assert got == [(4,), (2, 2)]

    def test_coprime_only_trivial(self):
        for n, e in [(4, 1), (5, 3), (6, 5), (9, 2)]:
            assert [p.parts for p in admissible_partitions(n, e)] == [(n,)]

    def test_degree_zero_vacuous(self):
        assert admissible_partitions(4, 0) == partitions_of(4)

    def test_six_four(self):
        got = [p.parts for p in admissible_partitions(6, 4)]
        assert got == [(6,), (3, 3)]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_bijection_with_partitions_of_gcd(self, n):
        for d in range(-6, 15):
            q = math.gcd(n, d)
            assert len(admissible_partitions(n, d)) == count_partitions(q)
            assert admissible_partitions(n, d) == admissible_partitions(n, q)

    def test_requires_n_at_least_two(self):
        with pytest.raises(ValueError):
            admissible_partitions(1, 0)


class TestGroupings:
    def test_paper_counts(self):
        assert grouping_count(Partition([1, 1, 1, 1]), Partition([2, 2])) == 3
        assert grouping_count(Partition([2, 1, 1]), Partition([2, 2])) == 1
        assert grouping_count(Partition([2, 2]), Partition([2, 2])) == 1
        assert grouping_count(Partition([3, 1]), Partition([2, 2])) == 0

    def test_enumerate_all_ones(self):
        groupings = grouping_enumerate(Partition([1, 1, 1, 1]), Partition([2, 2]))
        assert len(groupings) == 3
        for g in groupings:
            assert [b.parts for b in g] == [(1, 1), (1, 1)]

    def test_enumerate_mixed(self):
        groupings = grouping_enumerate(Partition([2, 1, 1]), Partition([2, 2]))
        assert len(groupings) == 1
        assert [b.parts for b in groupings[0]] == [(2,), (1, 1)]

    def test_identity_grouping(self):
        groupings = grouping_enumerate(Partition([4]), Partition([4]))
        assert len(groupings) == 1
        assert [b.parts for b in groupings[0]] == [(4,)]

    def test_sum_mismatch(self):
        with pytest.raises(ValueError):
            grouping_count(Partition([3]), Partition([2, 2]))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_trivial_groupings(self, n):
        for fine in partitions_of(n):
            assert grouping_count(fine, Partition([n])) == 1
            assert grouping_count(fine, fine) >= 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_total_over_coarse_is_bell(self, n):
        for fine in partitions_of(n):
            if fine.r > 8:
                continue
            total = sum(grouping_count(fine, coarse) for coarse in partitions_of(n))
            assert total == bell_number(fine.r)

    def test_against_independent_enumeration(self):
        for fine, coarse in [
            (Partition([1, 1, 1, 1]), Partition([2, 2])),
            (Partition([2, 2, 1, 1]), Partition([3, 3])),
            (Partition([2, 1, 1, 1, 1]), Partition([4, 2])),
            (Partition([3, 2, 1]), Partition([3, 3])),
        ]:
            expected = 0
            for blocks in restricted_growth_partitions(range(fine.r)):
                sums = tuple(
                    sorted((sum(fine.parts[i] for i in b) for b in blocks), reverse=True)
                )
                if sums == coarse.parts:
                    expected += 1
            assert grouping_count(fine, coarse) == expected


class TestSetPartitions:
    @pytest.mark.parametrize("n", range(0, 7))
    def test_bell_count(self, n):
        assert sum(1 for _ in set_partitions(range(n))) == bell_number(n)

    def test_blocks_cover(self):
        for blocks in set_partitions(range(4)):
            flat = sorted(v for b in blocks for v in b)
            assert flat == [0, 1, 2, 3]


class TestGroupConstants:
    def test_local_system_rank(self):
        assert local_system_rank(Partition([7])) == 1
        assert local_system_rank(Partition([2, 1, 1])) == 2
        assert local_system_rank(Partition([1, 1, 1, 1])) == 6

    def test_stabilizer_order(self):
        assert stabilizer_order(Partition([2, 2])) == 2
        assert stabilizer_order(Partition([3, 1])) == 1
        assert stabilizer_order(Partition([1, 1, 1, 1])) == 24

    @pytest.mark.parametrize("n", range(1, 8))
    def test_stabilizer_divides_full_group(self, n):
        for p in partitions_of(n):
            assert math.factorial(p.r) % stabilizer_order(p) == 0
