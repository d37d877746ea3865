import math
import sys
from math import comb, factorial

import pytest

from ngostrings.graphs import betti1, spectral_dual_graph
from ngostrings.matroid import top_betti
from ngostrings.partitions import (
    Partition,
    admissible_partitions,
    local_system_rank,
    partitions_of,
)
from ngostrings.strings import (
    ModelInconsistencyError,
    gcd_rows,
    ngo_string_graded_ranks,
    stabilization_codim,
    stratum_dims,
    string_table,
    table_report,
)

from conftest import (
    brute_force_stabilization_codim,
    grouping_enumerate,
    grouping_string_ranks,
    seed_string_rank,
    submultiset_string_ranks,
)


def straight_line_ranks(n, q):
    """Independent, memo-free restatement of the rank recursion (test oracle).

    Same recursion, different code path: explicit set-partition scan instead
    of the grouping helper, no memoization, dicts keyed by tuples.
    """

    def set_partitions_raw(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in set_partitions_raw(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1 :]
            yield [[first]] + part

    def all_partitions(total):
        def rec(remaining, cap):
            if remaining == 0:
                yield ()
                return
            for k in range(min(remaining, cap), 0, -1):
                for rest in rec(remaining - k, k):
                    yield (k,) + rest

        return list(rec(total, total))

    def table(m, qq):
        parts = all_partitions(m)
        if qq == m:
            return {p: (1 if len(p) == 1 else 0) for p in parts}
        if qq == 1:
            return {p: factorial(len(p) - 1) for p in parts}
        step = m // qq
        admissible = [p for p in parts if all(v % step == 0 for v in p) and len(p) > 1]
        out = {}
        for fine in parts:
            total = 0
            for coarse in admissible:
                hits = 0
                for blocks in set_partitions_raw(list(range(len(fine)))):
                    sums = tuple(
                        sorted((sum(fine[i] for i in b) for b in blocks), reverse=True)
                    )
                    if sums != coarse:
                        continue
                    prod = 1
                    for b in blocks:
                        block = tuple(sorted((fine[i] for i in b), reverse=True))
                        m_j = sum(block)
                        prod *= table(m_j, m_j * qq // m)[block]
                    hits += prod
                total += factorial(len(coarse) - 1) * hits
            out[fine] = factorial(len(fine) - 1) - total
        return out

    return table(n, q)


class TestStratumDims:
    def test_rank_two_trivial(self):
        dims = stratum_dims(Partition([2]), 2)
        assert dims.dim_A == 5
        assert dims.dim_S == 5
        assert dims.codim_S == 0
        assert dims.delta == 0
        assert dims.spectral_genus == 5

    def test_one_one(self):
        dims = stratum_dims(Partition([1, 1]), 2)
        assert dims.dim_S == 4
        assert dims.codim_S == 1
        assert dims.delta == 1
        assert dims.component_genera == (2, 2)

    def test_all_ones_rank_four(self):
        dims = stratum_dims(Partition([1, 1, 1, 1]), 2)
        assert dims.dim_A == 17
        assert dims.dim_S == 8
        assert dims.codim_S == 9
        assert dims.delta == 9

    def test_psi(self):
        dims = stratum_dims(Partition([2]), 2)
        assert dims.psi == 3 - 2 * dims.spectral_genus == -7

    @pytest.mark.parametrize("genus", [2, 3, 4])
    def test_codim_equals_betti_everywhere(self, genus):
        for n in range(2, 7):
            for p in partitions_of(n):
                dims = stratum_dims(p, genus)
                graph = spectral_dual_graph(p, genus)
                assert dims.codim_S == betti1(graph) == dims.delta
                assert dims.spectral_genus == dims.genus_sum + graph.edge_count - p.r + 1
                assert dims.dim_S == dims.genus_sum
                assert dims.spectral_genus == dims.genus_sum + dims.delta

    def test_genus_guard(self):
        with pytest.raises(ValueError):
            stratum_dims(Partition([2]), 1)


class TestStabilization:
    def test_known_values(self):
        assert stabilization_codim(2, 2) == 2
        assert stabilization_codim(4, 2) == 10
        assert stabilization_codim(3, 3) == 14

    def test_closed_form(self):
        for n in range(2, 21):
            for g in range(2, 6):
                closed = 4 * (g - 1) * (n - 1) - 2
                assert stabilization_codim(n, g) == closed == brute_force_stabilization_codim(n, g)

    def test_large_n_is_closed_form(self):
        assert stabilization_codim(10**6, 2) == 4 * (10**6 - 1) - 2

    def test_guards(self):
        with pytest.raises(ValueError):
            stabilization_codim(1, 2)
        with pytest.raises(ValueError):
            stabilization_codim(4, 1)


class TestGradedRanks:
    def test_level_zero_always_one_for_trivial_partition(self):
        for n in range(2, 6):
            for g in (2, 3):
                ranks = ngo_string_graded_ranks(Partition([n]), g)
                assert ranks[0] == 1

    def test_one_one_binomials(self):
        ranks = ngo_string_graded_ranks(Partition([1, 1]), 2)
        assert ranks == [comb(8, l) for l in range(9)]

    def test_total_is_power_of_two_times_factorial(self):
        for n in range(2, 6):
            for p in partitions_of(n):
                ranks = ngo_string_graded_ranks(p, 2)
                genus_sum = stratum_dims(p, 2).genus_sum
                assert len(ranks) == 2 * genus_sum + 1
                assert sum(ranks) == 2 ** (2 * genus_sum) * factorial(p.r - 1)


class TestStringTable:
    def test_rank_four_gcd_two(self):
        table = string_table(4, 2)
        expected = {
            (4,): 1,
            (3, 1): 1,
            (2, 2): 0,
            (2, 1, 1): 1,
            (1, 1, 1, 1): 3,
        }
        assert {p.parts: v for p, v in table.ranks.items()} == expected

    def test_rank_four_coprime(self):
        table = string_table(4, 1)
        expected = {
            (4,): 1,
            (3, 1): 1,
            (2, 2): 1,
            (2, 1, 1): 2,
            (1, 1, 1, 1): 6,
        }
        assert {p.parts: v for p, v in table.ranks.items()} == expected

    def test_rank_four_degree_zero(self):
        table = string_table(4, 0)
        expected = {(4,): 1, (3, 1): 0, (2, 2): 0, (2, 1, 1): 0, (1, 1, 1, 1): 0}
        assert {p.parts: v for p, v in table.ranks.items()} == expected

    def test_six_two_regression(self):
        # frozen value from an independent straight-line run of the recursion:
        # 5! - 10*(2*2) with 10 pairings of six labelled ones into two triples
        table = string_table(6, 2)
        assert table.ranks[Partition([1] * 6)] == 80

    def test_gcd_invariance(self):
        for n in range(2, 9):
            for d in range(-16, 17):
                q = math.gcd(n, d)
                t1 = string_table(n, d)
                t2 = string_table(n, q)
                assert t1.ranks == t2.ranks
                assert t1.q == t2.q == q

    def test_boundary_rows(self):
        for n in range(2, 9):
            coprime = string_table(n, 1)
            zero = string_table(n, 0)
            for p in partitions_of(n):
                assert coprime.ranks[p] == local_system_rank(p)
                assert zero.ranks[p] == (1 if p.r == 1 else 0)

    def test_trivial_partition_rank_one_always(self):
        for n in range(2, 9):
            for d in range(0, n + 1):
                assert string_table(n, d).ranks[Partition([n])] == 1

    def test_bounds(self):
        for n in range(2, 9):
            for q in [d for d in range(1, n + 1) if n % d == 0]:
                table = string_table(n, q)
                for p in partitions_of(n):
                    assert 0 <= table.ranks[p] <= local_system_rank(p)

    def test_conservation_identity(self):
        # rank + all proper contributions must reassemble (r-1)! exactly
        for n, d in [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4)]:
            table = string_table(n, d)
            q = table.q
            proper = [m for m in admissible_partitions(n, q) if m.r > 1]
            for fine in partitions_of(n):
                consumed = 0
                for coarse in proper:
                    for grouping in grouping_enumerate(fine, coarse):
                        prod = 1
                        for block in grouping:
                            sub = string_table(block.n, d * block.n // n)
                            prod *= sub.ranks[Partition(block.parts)]
                        consumed += local_system_rank(coarse) * prod
                assert table.ranks[fine] + consumed == local_system_rank(fine)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_against_straight_line_oracle(self, n):
        for q in [d for d in range(1, n + 1) if n % d == 0]:
            oracle = straight_line_ranks(n, q)
            table = string_table(n, q)
            assert {p.parts: v for p, v in table.ranks.items()} == oracle

    @pytest.mark.parametrize("n", range(2, 17))
    def test_against_grouping_recursion(self, n):
        for q in [d for d in range(1, n + 1) if n % d == 0]:
            ranks, flagged = grouping_string_ranks(n, q)
            table = string_table(n, q)
            assert {p.parts: v for p, v in table.ranks.items()} == ranks
            assert [p.parts for p in table.multiplier_partitions] == sorted(flagged, reverse=True)

    @pytest.mark.parametrize("n", range(2, 29))
    def test_against_submultiset_recursion(self, n):
        for q in [d for d in range(1, n + 1) if n % d == 0]:
            table = string_table(n, q)
            assert {p.parts: v for p, v in table.ranks.items()} == submultiset_string_ranks(n, q)

    def test_rank_24_gcd_12(self):
        # frozen from the grouping recursion, which needs about 40 s here
        table = string_table(24, 12)
        frozen = {
            (1,) * 24: 4348001449619557104375,
            (2,) * 12: 0,
            (3,) * 8: 1575,
            (5, 4, 3, 3, 2, 2, 1, 1, 1, 1, 1): 793800,
            (7, 5, 3, 3, 1, 1, 1, 1, 1, 1): 99225,
        }
        for parts, value in frozen.items():
            assert table.ranks[Partition(parts)] == value
        for p in partitions_of(24):
            assert 0 <= table.ranks[p] <= local_system_rank(p)

    def test_rank_depends_on_parts_mod_slope(self):
        # the exponential formula sees a part k only through k mod n/gcd,
        # so a partition has the rank of its parts reduced into 1..n/gcd
        for n, q in [(12, 6), (12, 4), (12, 3), (16, 4)]:
            step = n // q
            table = string_table(n, q)
            by_residues = {}
            for p in partitions_of(n):
                residues = tuple(sorted(((v - 1) % step + 1 for v in p.parts), reverse=True))
                assert by_residues.setdefault(residues, table.ranks[p]) == table.ranks[p]
                if sum(residues) < n:
                    small = string_table(sum(residues), sum(residues) // step)
                    assert small.ranks[Partition(residues)] == table.ranks[p]

    def test_cross_module_top_betti(self):
        for n in range(2, 6):
            coprime = string_table(n, 1)
            for p in partitions_of(n):
                for g in (2, 3):
                    assert coprime.ranks[p] == top_betti(spectral_dual_graph(p, g))

    def test_multiplier_flag(self):
        # the first table where a weight above one enters: n=6, gcd 3, via 2,2,2
        table = string_table(6, 3)
        assert [p.parts for p in table.multiplier_partitions] == [(2, 2, 2)]
        assert string_table(4, 2).multiplier_partitions == ()

    def test_requires_rank_two(self):
        with pytest.raises(ValueError):
            string_table(1, 0)

    def test_no_inconsistency_up_to_rank_ten(self):
        for n in range(2, 11):
            for q in [d for d in range(1, n + 1) if n % d == 0]:
                table = string_table(n, q)
                assert all(v >= 0 for v in table.ranks.values())

    def test_error_type_exists(self):
        err = ModelInconsistencyError(6, 2, Partition([1] * 6), 120, {(3, 3): 121})
        assert err.partition == Partition([1] * 6)
        assert "negative rank" in str(err)

    def test_negative_intermediate_raises(self, monkeypatch):
        # a seeded rank 121 for 1,1,1 at n/gcd = 3 makes 3,1,1,1, the first
        # partition of 6 whose recursion uses it, negative: 3! - C(3,3) * 121 * 0!
        seed_string_rank(monkeypatch, ((1, 3),), 121)
        with pytest.raises(ModelInconsistencyError) as info:
            string_table(6, 2)
        err = info.value
        assert err.partition == Partition([3, 1, 1, 1])
        assert (err.n, err.q, err.base) == (6, 2, 6)
        assert err.contributions == {(1, 1, 1): 121}
        assert "partition 3,1,1,1 at n=6, gcd=2" in str(err)


class TestTableReport:
    def test_rank_four_table(self):
        text = table_report(4)
        lines = text.strip().split("\n")
        assert lines[0].split() == ["gcd", "4", "3,1", "2,2", "2,1,1", "1,1,1,1"]
        assert lines[1].split() == ["0", "1", "0", "0", "0", "0"]
        assert lines[2].split() == ["1", "1", "1", "1", "2", "6"]
        assert lines[3].split() == ["2", "1", "1", "0", "1", "3"]

    def test_rank_two_table(self):
        lines = table_report(2).strip().split("\n")
        assert lines[1].split() == ["0", "1", "0"]
        assert lines[2].split() == ["1", "1", "1"]

    def test_rank_three_table(self):
        lines = table_report(3).strip().split("\n")
        assert lines[1].split() == ["0", "1", "0", "0"]
        assert lines[2].split() == ["1", "1", "1", "2"]

    def test_byte_stable(self):
        assert table_report(6) == table_report(6)

    def test_no_process_wide_memo(self):
        string_table(30, 6)
        table_report(24)
        partitions_of(41)
        memoised = [
            "%s.%s" % (name, attr)
            for name, module in list(sys.modules.items())
            if name.split(".")[0] == "ngostrings"
            for attr, value in vars(module).items()
            if hasattr(value, "cache_info")
        ]
        assert memoised == []

    def test_row_labels(self):
        assert gcd_rows(4) == [0, 1, 2]
        assert gcd_rows(6) == [0, 1, 2, 3]
        assert gcd_rows(7) == [0, 1]
