import random

import pytest

from ngostrings import intlinalg
from ngostrings.errors import ResourceLimitError
from ngostrings.graphs import MultiGraph, boundary_matrix, gale_dual, spectral_dual_graph, spectral_edge_count
from ngostrings.intlinalg import (
    MAX_DENSE_ENTRIES,
    IntMatrix,
    _eliminate,
    _sparse_rows,
    verify_exact,
)
from ngostrings.partitions import Partition, partitions_of

from conftest import (
    eliminate_reference,
    NotBoundaryMapError,
    gale_dual_hermite,
    gale_dual_via_smith,
    matmul,
    random_connected_multigraph,
    row_hermite_form,
    smith_normal_form,
    sparse_rank_reference,
    verify_exact_via_smith,
)


def det_bareiss(data):
    """Exact integer determinant by fraction-free elimination (test oracle)."""
    n = len(data)
    m = [list(row) for row in data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def random_int_matrix(rng, rows, cols, bound=6):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


class TestIntMatrix:
    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])

    def test_str_layout(self):
        text = str(IntMatrix([[1, -1, 0], [0, 1, -1]]))
        assert text == "[1 -1  0]\n[0  1 -1]"

    @pytest.mark.parametrize(
        "rows, text",
        [
            (
                [[-12, 3, 100, 0], [5, -1000, 0, 7], [0, 7, -8, 123456]],
                "[-12     3 100      0]\n[  5 -1000   0      7]\n[  0     7  -8 123456]",
            ),
            ([], "[]"),
            ([[], []], "[]\n[]"),
        ],
    )
    def test_str_frozen(self, rows, text):
        # each column is right-aligned to its own widest entry, signs included
        assert str(IntMatrix(rows)) == text

    def test_equality_needs_equal_rows(self):
        assert IntMatrix([[1, 2], [3, 4]]) == IntMatrix([[1, 2], [3, 4]])
        assert IntMatrix([[1, 2]]) != IntMatrix([[1], [2]])
        assert IntMatrix([[], []]) != IntMatrix([[]])
        assert IntMatrix([[1, 2]]) != [[1, 2]]


class TestSmithNormalForm:
    """Self-tests of the Smith normal form oracle in conftest."""

    def test_identity(self):
        dec = smith_normal_form(IntMatrix([[1, 0], [0, 1]]))
        assert dec.S == [[1, 0], [0, 1]]
        assert dec.invariants == (1, 1)

    def test_diag_two_three(self):
        A = IntMatrix([[2, 0], [0, 3]])
        dec = smith_normal_form(A)
        assert dec.invariants == (1, 6)
        assert matmul(matmul(dec.U, A.data), dec.V) == dec.S

    def test_zero_matrix(self):
        A = IntMatrix.zeros(2, 3)
        dec = smith_normal_form(A)
        assert dec.S == A.data
        assert dec.invariants == ()

    def test_invariants_and_rank(self):
        dec = smith_normal_form(IntMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]))
        assert dec.invariants == (2, 6, 12)
        assert dec.rank == 3
        dec = smith_normal_form(IntMatrix([[1, 2], [2, 4], [3, 6]]))
        assert dec.invariants == (1,)
        assert dec.rank == 1

    def test_deterministic(self):
        A = IntMatrix([[4, 6, 2], [6, 12, 9]])
        d1 = smith_normal_form(A)
        d2 = smith_normal_form(A)
        assert d1.S == d2.S and d1.U == d2.U and d1.V == d2.V

    @pytest.mark.parametrize("seed", range(20))
    def test_random_reconstruction(self, seed):
        rng = random.Random(seed)
        A = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        dec = smith_normal_form(A)
        assert matmul(matmul(dec.U, A.data), dec.V) == dec.S
        assert abs(det_bareiss(dec.U)) == 1
        assert abs(det_bareiss(dec.V)) == 1
        inv = dec.invariants
        assert all(inv[i] > 0 for i in range(len(inv)))
        assert all(inv[i + 1] % inv[i] == 0 for i in range(len(inv) - 1))
        # S is diagonal
        for i, row in enumerate(dec.S):
            for j, v in enumerate(row):
                if i != j:
                    assert v == 0

    # U, S, V as recorded before the unit-pivot short cuts; the last matrix has
    # a 2 before the first unit in row-major order at some step
    @pytest.mark.parametrize(
        "data, U, S, V",
        [
            (
                [[1, -1, 0], [0, 1, -1]],
                [[1, 0], [0, 1]],
                [[1, 0, 0], [0, 1, 0]],
                [[1, 1, 1], [0, 1, 1], [0, 0, 1]],
            ),
            (
                [[1, -1, 2, 0, -1], [1, 0, 2, -1, 1], [0, 1, 2, 2, -1], [0, 2, 0, 2, -2]],
                [[1, 0, 0, 0], [-1, 1, 0, 0], [1, -1, 1, 0], [-2, 2, -4, 1]],
                [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 2, 0]],
                [
                    [1, 1, 3, 0, 8],
                    [0, 1, 1, 1, -2],
                    [0, 0, -1, 0, -3],
                    [0, 0, 1, -1, 6],
                    [0, 0, 0, -1, 4],
                ],
            ),
            (
                [[-1, 1, -1, 2, -1], [1, -2, 0, 1, 1], [-2, -1, 0, 1, 0], [0, -1, 0, 1, 1]],
                [[-1, 0, 0, 0], [-1, -1, 0, 0], [-1, -1, 0, 1], [0, -2, -1, 5]],
                [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]],
                [
                    [1, 1, -2, 0, 1],
                    [0, 1, -1, 0, 1],
                    [0, 0, 1, -3, 8],
                    [0, 0, 0, -1, 3],
                    [0, 0, 0, 1, -2],
                ],
            ),
        ],
        ids=["triangle", "random-4x5-invariant-2", "random-4x5-unit-after-2"],
    )
    def test_frozen_transforms(self, data, U, S, V):
        dec = smith_normal_form(IntMatrix(data))
        assert (dec.U, dec.S, dec.V) == (U, S, V)


def sparse_rank(rows):
    return len(_eliminate(rows)[0])


class TestRank:
    def test_known_ranks(self):
        assert sparse_rank([{0: 1}, {1: 1}, {2: 1}]) == 3
        assert sparse_rank([{}, {}]) == 0
        assert sparse_rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_smith_rank(self, seed):
        rng = random.Random(100 + seed)
        A = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert sparse_rank(_sparse_rows(A.data)) == smith_normal_form(A).rank


class TestSparseRank:
    def test_matches_reference_on_random_sparse_matrices(self):
        rng = random.Random(30)
        values = (-6, -4, -3, -2, -1, 1, 2, 3, 5)
        for _ in range(800):
            cols = rng.randint(1, 9)
            rows = [
                {j: rng.choice(values) for j in rng.sample(range(cols), rng.randint(0, cols))}
                for _ in range(rng.randint(0, 9))
            ]
            assert sparse_rank(rows) == sparse_rank_reference(rows), rows

    @pytest.mark.parametrize("values", [(-1, 1), (-3, -2, -1, 1, 1, 1, 2, 4), (-6, -4, 2, 3, 9)])
    def test_elimination_matches_cross_multiplying_reference(self, values):
        # rows are updated in place; pivot columns, unimodularity and the
        # input rows are as with a cross-multiplied copy per update
        rng = random.Random(len(values))
        for _ in range(600):
            cols = rng.randint(1, 10)
            rows = [
                {j: rng.choice(values) for j in rng.sample(range(cols), rng.randint(0, cols))}
                for _ in range(rng.randint(0, 10))
            ]
            before = [dict(row) for row in rows]
            assert intlinalg._eliminate(rows) == eliminate_reference(rows), rows
            assert rows == before

    def test_pivot_columns_have_full_rank(self):
        # the columns the homology oracle clears by: a nonsingular minor lies in them
        rng = random.Random(32)
        values = (-3, -2, -1, 1, 2, 3)
        for _ in range(300):
            cols = rng.randint(1, 9)
            rows = [
                {j: rng.choice(values) for j in rng.sample(range(cols), rng.randint(0, cols))}
                for _ in range(rng.randint(0, 9))
            ]
            pivots, _ = intlinalg._eliminate(rows)
            assert len(set(pivots)) == len(pivots) == sparse_rank_reference(rows)
            kept = [{j: v for j, v in row.items() if j in pivots} for row in rows]
            assert sparse_rank_reference(kept) == len(pivots), rows

    def test_elimination_of_gale_pairs_matches_reference(self):
        rng = random.Random(31)
        for _ in range(40):
            graph = random_connected_multigraph(rng, max_vertices=7, max_edges=14, allow_loops=True)
            if graph.vertex_count < 2:
                continue
            quiver = graph
            for matrix in (boundary_matrix(quiver), gale_dual(quiver)):
                rows = [{j: v for j, v in enumerate(row) if v} for row in matrix.data]
                result = intlinalg._eliminate(rows)
                assert result == eliminate_reference(rows)
                assert result[1]  # both are totally unimodular


class TestHermite:
    def test_canonical_sign(self):
        assert row_hermite_form([[-1, 1]], 2) == [[1, -1]]

    def test_lattice_invariance(self):
        rows = [[2, 1, 1], [1, 1, 0]]
        swapped = [[1, 1, 0], [2, 1, 1]]
        mixed = [[3, 2, 1], [1, 1, 0]]
        h = row_hermite_form(rows, 3)
        assert row_hermite_form(swapped, 3) == h
        assert row_hermite_form(mixed, 3) == h


TRIANGLE = MultiGraph(3, [(0, 1), (1, 2), (2, 0)])


class TestGaleDual:
    def test_triangle(self):
        B = gale_dual(TRIANGLE)
        assert B.data == [[1], [1], [1]]

    def test_banana(self):
        banana = MultiGraph(2, [(0, 1), (0, 1)])
        assert boundary_matrix(banana).data == [[1, 1]]
        B = gale_dual(banana)
        assert B.data == [[1], [-1]]

    def test_single_edge_trivial_kernel(self):
        B = gale_dual(MultiGraph(2, [(0, 1)]))
        assert B.rows == 1 and B.cols == 0

    def test_loops_are_their_own_cycles(self):
        B = gale_dual(MultiGraph(2, [(1, 1), (1, 0), (0, 0)]))
        assert B.data == [[1, 0], [0, 0], [0, 1]]

    def test_not_surjective_rejected(self):
        # the general-matrix oracle refuses what has no Gale dual
        with pytest.raises(NotBoundaryMapError, match=r"Hermite diagonal \(2,\)"):
            gale_dual_hermite(IntMatrix([[2]]))
        with pytest.raises(NotBoundaryMapError, match=r"Hermite diagonal \(1, 0\)"):
            gale_dual_hermite(IntMatrix([[1, 0], [1, 0]]))

    def test_kernel_hermite_pivot_above_one(self):
        A = IntMatrix([[3, -2]])
        B = gale_dual_hermite(A)
        assert B.data == [[2], [3]]
        assert verify_exact_via_smith(A, B).ok

    def test_same_as_smith_oracle_on_random_matrices(self):
        # the two oracles agree on general matrices, onto Z or not
        rng = random.Random(20)
        outcomes = {True: 0, False: 0}
        for _ in range(2400):
            A = random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 8), bound=rng.choice([1, 2, 6]))
            try:
                expected = gale_dual_via_smith(A)
            except NotBoundaryMapError:
                with pytest.raises(NotBoundaryMapError):
                    gale_dual_hermite(A)
                outcomes[False] += 1
                continue
            assert gale_dual_hermite(A) == expected, A
            outcomes[True] += 1
        assert min(outcomes.values()) > 500

    def test_same_as_smith_oracle_on_random_multigraphs(self):
        rng = random.Random(21)
        for _ in range(300):
            g = random_connected_multigraph(rng, max_vertices=8, max_edges=16, allow_loops=True)
            if g.vertex_count < 2:
                continue
            quiver = g
            assert gale_dual(quiver) == gale_dual_via_smith(boundary_matrix(quiver)), g

    def test_same_as_hermite_oracle_on_random_quivers(self):
        rng = random.Random(24)
        done = 0
        while done < 400:
            g = random_connected_multigraph(rng, max_vertices=7, max_edges=20, allow_loops=True)
            if g.vertex_count < 2:
                continue
            # reverse some edges, so orientations disagree along tree paths
            quiver = MultiGraph(g.vertex_count, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges])
            assert gale_dual(quiver) == gale_dual_hermite(boundary_matrix(quiver)), quiver
            done += 1

    @pytest.mark.parametrize("parts, genus", [((2, 1, 1), 100), ((1,) * 5, 10), ((2, 1, 1, 1), 8)])
    def test_same_as_hermite_oracle_on_spectral_quivers(self, parts, genus):
        quiver = spectral_dual_graph(Partition(parts), genus)
        assert gale_dual(quiver) == gale_dual_hermite(boundary_matrix(quiver))

    def test_size_limit(self):
        # (r-1)*s fits, the s^2 entries of A and B together do not
        with pytest.raises(ResourceLimitError, match="Gale dual of a 1x1001 matrix needs 1002001 dense entries"):
            gale_dual(MultiGraph(2, [(0, 1)] * 1001))
        path = MultiGraph(1002, [(v, v + 1) for v in range(1001)])
        for build in (boundary_matrix, gale_dual):
            with pytest.raises(ResourceLimitError, match="boundary matrix of 1002 vertices .* dense entries"):
                build(path)

    def test_refusal_order(self):
        # each refusal of gale_dual is the one boundary_matrix would give first
        with pytest.raises(ValueError, match="at least 2 vertices"):
            gale_dual(MultiGraph(1, [(0, 0)] * 2000))
        with pytest.raises(ValueError, match="requires a connected quiver"):
            gale_dual(MultiGraph(3, [(0, 1)] * 1000))

    def test_size_limit_admits_genus_60(self):
        s = spectral_edge_count(Partition((2, 1, 1)), 60)
        assert s == 590
        assert s * s <= MAX_DENSE_ENTRIES


class TestVerifyExact:
    def test_triangle_passes(self):
        A = boundary_matrix(TRIANGLE)
        report = verify_exact(A, IntMatrix([[1], [1], [1]]))
        assert report.ok and bool(report)

    def test_unsaturated_kernel_is_refused(self):
        # the row gcd 2 leaves B without a certificate; only its Smith form shows im(B) unsaturated
        A, B = boundary_matrix(TRIANGLE), IntMatrix([[2], [2], [2]])
        assert "kernel not saturated" in verify_exact_via_smith(A, B).failures
        with pytest.raises(ValueError, match="^B has no unit-pivot certificate; only pairs with one are decided$"):
            verify_exact(A, B)

    def test_not_spanning(self):
        A = boundary_matrix(TRIANGLE)
        report = verify_exact(A, IntMatrix([[0], [0], [0]]))
        assert not report.ok
        assert "not spanning" in report.failures

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            verify_exact(IntMatrix([[1, 1]]), IntMatrix([[1], [1], [1]]))

    def test_nonzero_product(self):
        A = boundary_matrix(TRIANGLE)
        report = verify_exact(A, IntMatrix([[1], [0], [0]]))
        assert not report.ok
        assert "product A*B nonzero" in report.failures

    def test_boundary_pairs_are_certified(self):
        # boundary and fundamental-cycle matrices are totally unimodular, so
        # the unit-pivot certificate decides every pair gale builds
        quivers = [
            spectral_dual_graph(p, genus) for genus in (2, 3) for n in range(2, 7) for p in partitions_of(n) if p.r > 1
        ]
        rng = random.Random(23)
        for _ in range(1000):
            g = random_connected_multigraph(rng, max_vertices=8, max_edges=16, allow_loops=True)
            while g.vertex_count < 2:
                g = random_connected_multigraph(rng, max_vertices=8, max_edges=16, allow_loops=True)
            quivers.append(g)
        assert sum(len(set(q.edges)) < q.edge_count for q in quivers) > 100  # parallel edges
        assert sum(any(u == v for u, v in q.edges) for q in quivers) > 100  # loops
        for quiver in quivers:
            A, B = boundary_matrix(quiver), gale_dual(quiver)
            assert verify_exact(A, B) == verify_exact_via_smith(A, B), quiver

    def test_same_as_smith_oracle_on_random_pairs(self):
        # certified pairs get the oracle's report; every other pair is the one
        # the unit-pivot certificate cannot decide, and is refused
        rng = random.Random(22)
        paths = {"certified": 0, "refused": 0}
        seen = set()
        for _ in range(2000):
            s = rng.randint(1, 6)
            A = random_int_matrix(rng, rng.randint(1, 4), s, bound=rng.choice([1, 2, 6]))
            kind = rng.choice(["dual", "scaled", "empty", "random"])
            try:
                B = gale_dual_hermite(A)
            except NotBoundaryMapError:
                kind = "random"
            if kind == "random":
                B = random_int_matrix(rng, s, rng.randint(1, 4), bound=rng.choice([1, 2, 6]))
            elif kind == "scaled" and B.cols:
                k = rng.randrange(B.cols)
                factor = rng.choice([2, 3, -2])
                B = IntMatrix([[v * factor if j == k else v for j, v in enumerate(row)] for row in B.data])
            elif kind == "empty":
                B = IntMatrix([[] for _ in range(s)])
            expected = verify_exact_via_smith(A, B)
            pivots_a, a_unit = intlinalg._eliminate(_sparse_rows(A.data))
            certified = intlinalg._eliminate(_sparse_rows(B.data))[1] and (a_unit or len(pivots_a) < A.rows)
            if certified:
                assert verify_exact(A, B) == expected, (A, B)
            else:
                with pytest.raises(ValueError, match="has no unit-pivot certificate"):
                    verify_exact(A, B)
            paths["certified" if certified else "refused"] += 1
            if not expected.a_surjective_over_z:
                seen.add("A not onto")
            if not expected.saturated:
                seen.add("B not saturated")
            if B.cols == 0:
                seen.add("B has no columns")
        assert min(paths.values()) > 100, paths
        assert seen == {"A not onto", "B not saturated", "B has no columns"}

    @pytest.mark.parametrize(
        "data, onto",
        [([[2, 3]], True), ([[2, 4]], False), ([[6, 10, 15]], True)],
    )
    def test_smith_fallback_without_unit_pivot(self, data, onto):
        # no entry is +-1, so only the Smith invariants can tell whether A is
        # onto Z, and verify_exact refuses the pair
        A = IntMatrix(data)
        B = gale_dual_hermite(A) if onto else IntMatrix([[2], [-1]])
        assert verify_exact_via_smith(A, B).a_surjective_over_z is onto
        with pytest.raises(ValueError, match="^A has no unit-pivot certificate; only pairs with one are decided$"):
            verify_exact(A, B)


class TestExactSequencesOnGraphs:
    @pytest.mark.parametrize("genus", [2, 3])
    def test_spectral_graphs(self, genus):
        for n in range(2, 7):
            for p in partitions_of(n):
                if p.r < 2:
                    continue
                quiver = spectral_dual_graph(p, genus)
                A, B = boundary_matrix(quiver), gale_dual(quiver)
                expected_b1 = quiver.edge_count - quiver.vertex_count + 1
                assert B.cols == expected_b1
                assert verify_exact(A, B).ok
                assert all(d == 1 for d in smith_normal_form(A).invariants)

    def test_random_graphs(self):
        rng = random.Random(5)
        done = 0
        while done < 40:
            g = random_connected_multigraph(rng, max_vertices=6, max_edges=10, allow_loops=True)
            if g.vertex_count < 2:
                continue
            quiver = g
            A, B = boundary_matrix(quiver), gale_dual(quiver)
            assert verify_exact(A, B).ok
            assert B.cols == g.edge_count - g.vertex_count + 1
            done += 1
