"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (integer equality); each criterion also carries a wall
clock budget that is asserted.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import math
import random
import time
from contextlib import contextmanager
from math import factorial

from ngostrings.graphs import (
    MultiGraph,
    betti1,
    boundary_matrix,
    gale_dual,
    spectral_dual_graph,
)
from ngostrings.homology import MAX_GROUND_SET, matroid_complex, reduced_homology_ranks
from ngostrings.hypertoric import _sphere_count, circuit_relations, enumerate_strata, local_model_dims
from ngostrings.intlinalg import verify_exact
from ngostrings.matroid import CographicMatroid, f_h_vectors, tutte_polynomial
from ngostrings.partitions import Partition, partitions_of
from ngostrings.strings import stabilization_codim, string_table, stratum_dims, table_report

from conftest import (
    brute_force_stabilization_codim,
    random_connected_multigraph,
    smith_normal_form,
    top_betti_reference,
    tutte_polynomial_naive,
)
from test_matroid import brute_force_f_h, spanning_tree_count


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %2d %s: FAIL" % (number, name))
        raise
    elapsed = time.perf_counter() - start
    print("ACCEPTANCE %2d %s: PASS (%.2fs < %ds)" % (number, name, elapsed, budget_seconds))
    assert elapsed < budget_seconds, "budget exceeded: %.2fs" % elapsed


def test_criterion_01_table_one_reproduction():
    with criterion(1, "Table-1 reproduction", 1):
        expected = {
            4: {(4,): 1, (3, 1): 0, (2, 2): 0, (2, 1, 1): 0, (1, 1, 1, 1): 0},
            1: {(4,): 1, (3, 1): 1, (2, 2): 1, (2, 1, 1): 2, (1, 1, 1, 1): 6},
            2: {(4,): 1, (3, 1): 1, (2, 2): 0, (2, 1, 1): 1, (1, 1, 1, 1): 3},
        }
        for d, q in [(0, 4), (1, 1), (2, 2), (5, 1), (6, 2), (8, 4)]:
            table = string_table(4, d)
            assert table.q == q
            assert {p.parts: v for p, v in table.ranks.items()} == expected[q]


def test_criterion_02_rank_two_theorem():
    with criterion(2, "rank-two theorem", 1):
        lines = table_report(2).strip().split("\n")
        assert lines[0].split() == ["gcd", "2", "1,1"]
        assert lines[1].split() == ["0", "1", "0"]
        assert lines[2].split() == ["1", "1", "1"]
        # odd degree == gcd 1 row, even degree == gcd 2 row
        odd = string_table(2, 7)
        even = string_table(2, 10)
        assert odd.ranks[Partition([2])] == 1 and odd.ranks[Partition([1, 1])] == 1
        assert even.ranks[Partition([2])] == 1 and even.ranks[Partition([1, 1])] == 0


def test_criterion_03_boundary_rows():
    with criterion(3, "coprime and zero boundary rows", 5):
        for n in range(2, 9):
            coprime = string_table(n, 1)
            zero = string_table(n, 0)
            for p in partitions_of(n):
                assert coprime.ranks[p] == factorial(p.r - 1)
                assert zero.ranks[p] == (1 if p.r == 1 else 0)


def test_criterion_04_gcd_invariance():
    with criterion(4, "gcd invariance of the rank table", 30):
        for n in range(2, 9):
            for d in range(-16, 17):
                q = math.gcd(n, d)
                assert string_table(n, d).ranks == string_table(n, q).ranks


def test_criterion_05_delta_equals_codim():
    with criterion(5, "delta = codim identity", 1):
        for n in range(2, 7):
            for g in (2, 3, 4):
                for p in partitions_of(n):
                    # dimension-formula side
                    dim_a = n * n * (g - 1) + 1
                    dim_s = sum(k * k * (g - 1) + 1 for k in p.parts)
                    # graph side, independently
                    b1 = betti1(spectral_dual_graph(p, g))
                    assert dim_a - dim_s == b1
                    dims = stratum_dims(p, g)
                    assert dims.codim_S == dims.delta == b1
                    # the identities stratum_dims does not check itself
                    assert dims.dim_S == dims.genus_sum
                    assert dims.spectral_genus == dims.genus_sum + dims.delta


def test_criterion_06_multiplicity_three_way():
    with criterion(6, "multiplicity cross-validation (Tutte/homology/factorial)", 120):
        homology_checked = 0
        for n in range(2, 6):
            for g in (2, 3):
                for p in partitions_of(n):
                    graph = spectral_dual_graph(p, g)
                    spheres = top_betti_reference(graph)
                    assert spheres == factorial(p.r - 1), (p, g)
                    assert _sphere_count(p.r, graph.pair_multiplicities()) == spheres, (p, g)
                    if 0 < graph.edge_count <= MAX_GROUND_SET:
                        ranks = reduced_homology_ranks(
                            matroid_complex(CographicMatroid(graph))
                        )
                        assert all(v == 0 for v in ranks[:-1])
                        assert ranks[-1] == spheres
                        homology_checked += 1
        # up to the 16-edge cap: 3,1,1 and 2,2,1 at genus 2, 2,2 and 4,1 at genus 3
        assert homology_checked == 17
        big = spectral_dual_graph(Partition([1, 1, 1, 1]), 2)
        assert big.edge_count == 12
        ranks = reduced_homology_ranks(matroid_complex(CographicMatroid(big)))
        assert ranks[-1] == top_betti_reference(big) == 6


def test_criterion_07_gale_exactness():
    with criterion(7, "Gale duality exactness", 10):
        for n in range(2, 7):
            for g in (2, 3):
                for p in partitions_of(n):
                    if p.r < 2:
                        continue
                    quiver = spectral_dual_graph(p, g)
                    A, B = boundary_matrix(quiver), gale_dual(quiver)
                    assert B.cols == betti1(quiver)
                    assert verify_exact(A, B).ok
                    rels = circuit_relations(quiver)
                    assert [list(rel.coefficients) for rel in rels] == A.data
        rng = random.Random(2024)
        done = 0
        while done < 200:
            graph = random_connected_multigraph(rng, max_vertices=6, max_edges=10, allow_loops=True)
            if graph.vertex_count < 2:
                continue
            quiver = graph
            A = boundary_matrix(quiver)
            assert all(d == 1 for d in smith_normal_form(A).invariants)
            assert verify_exact(A, gale_dual(quiver)).ok
            done += 1


def test_criterion_08_local_model_ledger():
    with criterion(8, "local-model dimension ledger", 1):
        for n in range(2, 9):
            for g in range(2, 6):
                for p in partitions_of(n):
                    dims = local_model_dims(p, g)
                    graph = spectral_dual_graph(p, g)
                    assert (dims.s, dims.b1) == (graph.edge_count, betti1(graph))
                    # both defining expressions for the first constant
                    via_moduli = (dims.dim_M - dims.dim_Y) // 2 - g - 1
                    via_formula = (n * n - 1) * (g - 1) - 1 - dims.b1
                    assert dims.d_dim == via_moduli == via_formula
                    # the identities local_model_dims does not check itself
                    assert dims.dim_M == dims.dim_Y + 2 * dims.d_dim + 2 * g + 2
                    assert dims.dim_Jbar == dims.dim_X + dims.c_dim


def test_criterion_09_semismall_certification():
    with criterion(9, "semismall certification", 60):
        for n in range(2, 6):
            for p in partitions_of(n):
                for rec in enumerate_strata(spectral_dual_graph(p, 2)):
                    assert 2 * rec.fiber_dim == rec.codim_in_Y
                    if len(rec.vp) >= 2:
                        # strictly small: the fiber dimension is below the Lawrence codimension b1 + s
                        assert rec.b1_contracted < rec.s_contracted
                        # a singular stratum: b1 = 0 would be a smooth slice, merged into the open one
                        assert rec.b1_contracted > 0
        banana = MultiGraph(2, [(0, 1), (0, 1)])
        assert [(len(rec.vp), rec.codim_in_Y, rec.multiplicity) for rec in enumerate_strata(banana)] == [
            (1, 0, 1),
            (2, 2, 1),
        ]
        # the single edge has such a smooth two-block record, so it decomposes as the open summand alone
        edge = MultiGraph(2, [(0, 1)])
        assert [(len(rec.vp), rec.b1_contracted, rec.multiplicity) for rec in enumerate_strata(edge)] == [
            (1, 0, 1),
            (2, 0, 1),
        ]


def test_criterion_10_stabilization_codimension():
    with criterion(10, "stabilization codimension", 5):
        for n in range(2, 21):
            for g in range(2, 6):
                closed = 4 * (g - 1) * (n - 1) - 2
                assert stabilization_codim(n, g) == closed == brute_force_stabilization_codim(n, g)


def test_criterion_11_oracle_suite():
    with criterion(11, "oracle suite", 120):
        from ngostrings.graphs import MultiGraph

        named = [
            spectral_dual_graph(Partition([1, 1]), 2),
            spectral_dual_graph(Partition([1, 1, 1]), 2),
            spectral_dual_graph(Partition([2, 1, 1]), 2),
            spectral_dual_graph(Partition([2, 2]), 2),
            spectral_dual_graph(Partition([3, 1]), 2),
            MultiGraph(2, [(0, 1), (0, 1)]),
            MultiGraph(3, [(0, 1), (1, 2), (2, 0)]),
            MultiGraph(4, [(0, 1), (1, 2), (2, 3)]),
            MultiGraph(1, [(0, 0)]),
        ]
        rng = random.Random(77)
        randoms = []
        while len(randoms) < 100:
            randoms.append(
                random_connected_multigraph(rng, max_vertices=5, max_edges=8, allow_loops=True)
            )
        for graph in named + randoms:
            poly = tutte_polynomial(graph)
            assert poly.evaluate(1, 1) == spanning_tree_count(graph)
            if graph.edge_count <= 8:
                assert poly == tutte_polynomial_naive(graph)
            if graph.edge_count <= 12:
                matroid = CographicMatroid(graph)
                assert f_h_vectors(matroid) == brute_force_f_h(matroid)
                complex_ = matroid_complex(matroid)
                ranks = reduced_homology_ranks(complex_)
                assert all(v == 0 for v in ranks[:-1])
                faces = complex_.faces_by_dim()
                euler = sum((-1) ** k * len(v) for k, v in faces.items())
                homological = sum((-1) ** (k - 1) * v for k, v in enumerate(ranks))
                assert euler == homological
