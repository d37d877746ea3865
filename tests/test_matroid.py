import random
import sys
import time
from itertools import combinations
from math import comb, factorial, prod

import pytest

from ngostrings.errors import ResourceLimitError
from ngostrings.graphs import MultiGraph, betti1, canonical_key, spectral_dual_graph
from ngostrings import matroid
from ngostrings.hypertoric import enumerate_strata
from ngostrings.homology import MAX_GROUND_SET
from ngostrings.matroid import (
    MAX_F_VECTOR_RANK,
    CographicMatroid,
    TuttePolynomial,
    f_h_vectors,
    _tutte,
    tutte_polynomial,
)
from ngostrings.partitions import Partition, partitions_of

from tutte_timings import INPUTS as TIMING_INPUTS

from conftest import (
    engine_tutte,
    independent_sets_reference,
    random_connected_multigraph,
    top_betti_reference,
    tutte_cold_pairs,
    tutte_polynomial_naive,
    tutte_reference,
)

BANANA2 = MultiGraph(2, [(0, 1), (0, 1)])
TRIANGLE = MultiGraph(3, [(0, 1), (1, 2), (2, 0)])


def spanning_tree_count(graph):
    """Matrix-tree oracle: determinant of a reduced Laplacian, exact integers."""
    r = graph.vertex_count
    if r == 1:
        return 1
    lap = [[0] * r for _ in range(r)]
    for u, v in graph.edges:
        if u == v:
            continue
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    minor = [row[1:] for row in lap[1:]]
    # fraction-free determinant
    n = len(minor)
    m = [list(row) for row in minor]
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


def brute_force_f_h(matroid):
    """Oracle: f counted over every independent set, h by the standard transform."""
    rank = matroid.rank
    f = [0] * (rank + 1)
    for iset in independent_sets_reference(matroid.graph):
        f[len(iset)] += 1
    h = [
        sum((-1) ** (j - i) * comb(rank - i, j - i) * f[i] for i in range(j + 1))
        for j in range(rank + 1)
    ]
    return tuple(f), tuple(h)


def graphic_rank(graph, subset):
    """Rank of an edge subset in the graphic matroid: r - #components of (V, subset)."""
    parent = list(range(graph.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = graph.vertex_count
    for i in subset:
        u, v = graph.edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return graph.vertex_count - comps


def corank_nullity_tutte(rank_fn, ground_size, full_rank):
    """Whitney rank generating function oracle: sum over all subsets."""
    poly = {}
    for size in range(ground_size + 1):
        for subset in combinations(range(ground_size), size):
            r = rank_fn(subset)
            key = (full_rank - r, size - r)
            poly[key] = poly.get(key, 0) + 1
    # expand (x-1)^a (y-1)^b
    out = {}
    for (a, b), c in poly.items():
        for i in range(a + 1):
            for j in range(b + 1):
                coeff = c * comb(a, i) * comb(b, j) * (-1) ** ((a - i) + (b - j))
                key = (i, j)
                out[key] = out.get(key, 0) + coeff
    return TuttePolynomial(out)


class TestPolynomial:
    def test_str(self):
        assert str(TuttePolynomial({(2, 0): 1, (1, 0): 1, (0, 1): 1})) == "x^2 + x + y"
        assert str(TuttePolynomial({(0, 0): 1})) == "1"
        assert str(TuttePolynomial({(1, 1): 3})) == "3*x*y"
        assert str(TuttePolynomial()) == "0"

    def test_arithmetic(self):
        x = TuttePolynomial.monomial(1, 0)
        y = TuttePolynomial.monomial(0, 1)
        assert (x + y).evaluate(2, 3) == 5
        assert (x * y).evaluate(2, 3) == 6

    def test_terms_sorted(self):
        p = TuttePolynomial({(0, 1): 1, (2, 0): 1, (1, 0): 1})
        assert [t[0] for t in p.terms()] == [(2, 0), (1, 0), (0, 1)]

    def test_cancelled_terms_drop(self):
        x = TuttePolynomial.monomial(1, 0)
        y = TuttePolynomial.monomial(0, 1)
        minus_y = TuttePolynomial.monomial(0, 1, -1)
        assert (x + y + minus_y).coeffs == {(1, 0): 1}
        assert ((x + y) * (x + minus_y)).coeffs == {(2, 0): 1, (0, 2): -1}
        assert (y + minus_y).coeffs == {}
        assert TuttePolynomial.monomial(3, 3, 0) == TuttePolynomial.zero()


class TestIndependence:
    def test_banana(self):
        assert independent_sets_reference(BANANA2) == [(), (0,), (1,)]
        assert CographicMatroid(BANANA2).rank == 1

    def test_tree_rank_zero(self):
        tree = MultiGraph(3, [(0, 1), (1, 2)])
        assert independent_sets_reference(tree) == [()]
        assert CographicMatroid(tree).rank == 0

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            CographicMatroid(MultiGraph(2, []))


def bases_reference(graph):
    """The b1-subsets of the edges whose deletion leaves the graph connected, in lexicographic order."""
    return [
        c
        for c in combinations(range(graph.edge_count), betti1(graph))
        if MultiGraph(graph.vertex_count, [e for i, e in enumerate(graph.edges) if i not in c]).is_connected()
    ]


class TestBases:
    def test_small_cases(self):
        assert CographicMatroid(BANANA2).bases() == [(0,), (1,)]
        assert CographicMatroid(MultiGraph(3, [(0, 1), (1, 2)])).bases() == [()]
        # one vertex: every edge is a loop and the only basis is all of them
        assert CographicMatroid(MultiGraph(1, [(0, 0), (0, 0)])).bases() == [(0, 1)]
        assert CographicMatroid(MultiGraph(1, [])).bases() == [()]
        # a loop is in every basis, and parallel edges are never all left out
        bases = CographicMatroid(MultiGraph(2, [(0, 1), (1, 1), (0, 1), (0, 1)])).bases()
        assert bases == [(0, 1, 2), (0, 1, 3), (1, 2, 3)]

    def test_spectral_graphs_match_reference(self):
        checked = 0
        for n in range(1, 5):
            for genus in (2, 3):
                for p in partitions_of(n):
                    graph = spectral_dual_graph(p, genus)
                    assert CographicMatroid(graph).bases() == bases_reference(graph), (p, genus)
                    checked += 1
        assert checked == 22

    def test_random_multigraphs_match_reference(self):
        rng = random.Random(29)
        shapes = set()
        for _ in range(200):
            graph = random_connected_multigraph(rng, max_vertices=6, max_edges=12, allow_loops=True)
            assert CographicMatroid(graph).bases() == bases_reference(graph), graph
            shapes.add(graph.vertex_count)
            pairs = graph.pair_multiplicities()
            if any(u == v for u, v in pairs):
                shapes.add("loop")
            if any(k > 1 for (u, v), k in pairs.items() if u != v):
                shapes.add("parallel")
        assert shapes == {1, 2, 3, 4, 5, 6, "loop", "parallel"}


class TestTutte:
    def test_base_cases(self):
        assert str(tutte_polynomial(MultiGraph(1, [(0, 0)]))) == "y"
        assert str(tutte_polynomial(MultiGraph(2, [(0, 1)]))) == "x"

    def test_banana_and_triangle(self):
        assert str(tutte_polynomial(BANANA2)) == "x + y"
        assert str(tutte_polynomial(TRIANGLE)) == "x^2 + x + y"

    def test_banana_k(self):
        for k in range(2, 7):
            poly = tutte_polynomial(MultiGraph(2, [(0, 1)] * k))
            expected = {(1, 0): 1}
            expected.update({(0, j): 1 for j in range(1, k)})
            assert poly == TuttePolynomial(expected)

    @pytest.mark.parametrize(
        "graph",
        [
            MultiGraph(3, [(0, 1)]),
            # enough edges to connect: the block search finds the second component
            MultiGraph(4, [(0, 1), (0, 1), (1, 0), (2, 3)]),
            MultiGraph(5, [(0, 1), (1, 2), (2, 0), (3, 3), (4, 4)]),
            MultiGraph(6, [(u, v) for u in range(5) for v in range(u + 1, 5)]),
            # too few edges: refused with nothing allocated per vertex
            MultiGraph(10**9, [(0, 1), (1, 2)]),
        ],
    )
    def test_disconnected_rejected(self, graph):
        with pytest.raises(ValueError, match="^Tutte polynomial requires a connected graph$"):
            tutte_polynomial(graph)

    def test_spanning_tree_specialization(self):
        named = [
            BANANA2,
            TRIANGLE,
            MultiGraph(2, [(0, 1)] * 5),
            spectral_dual_graph(Partition([1, 1, 1]), 2),
            spectral_dual_graph(Partition([2, 1, 1]), 2),
            spectral_dual_graph(Partition([2, 2]), 2),
        ]
        for g in named:
            assert tutte_polynomial(g).evaluate(1, 1) == spanning_tree_count(g)
        rng = random.Random(99)
        done = 0
        while done < 50:
            g = random_connected_multigraph(rng, max_vertices=5, max_edges=8, allow_loops=True)
            assert tutte_polynomial(g).evaluate(1, 1) == spanning_tree_count(g)
            done += 1

    def test_equals_naive(self):
        rng = random.Random(17)
        for _ in range(100):
            g = random_connected_multigraph(rng, max_vertices=5, max_edges=8, allow_loops=True)
            poly = tutte_polynomial(g)
            assert poly == tutte_polynomial_naive(g)
            assert all(c > 0 for c in poly.coeffs.values())

    def test_orientation_changes_nothing(self):
        # the same graph with every edge reversed at random
        rng = random.Random(23)
        graphs = [spectral_dual_graph(Partition(p), 2) for p in ([1, 1, 1], [2, 1, 1], [1, 1, 1, 1])]
        while len(graphs) < 23:
            graphs.append(random_connected_multigraph(rng, max_vertices=5, max_edges=8, allow_loops=True))
        for g in graphs:
            q = MultiGraph(g.vertex_count, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges])
            assert tutte_polynomial(q) == tutte_polynomial(g)
            assert top_betti_reference(q) == top_betti_reference(g)
            assert betti1(q) == betti1(g)
            assert canonical_key(q) == canonical_key(g)
            mq, mg = CographicMatroid(q), CographicMatroid(g)
            assert (mq.rank, mq.size) == (mg.rank, mg.size)
            assert f_h_vectors(mq) == f_h_vectors(mg)

    def test_cographic_duality_against_subset_oracle(self):
        graphs = [
            BANANA2,
            TRIANGLE,
            MultiGraph(2, [(0, 1)] * 4),
            spectral_dual_graph(Partition([1, 1, 1]), 2),
            MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
            MultiGraph(3, [(0, 1), (1, 2), (2, 0), (0, 0)]),
        ]
        rng = random.Random(3)
        for _ in range(10):
            graphs.append(random_connected_multigraph(rng, max_vertices=5, max_edges=9, allow_loops=True))
        for g in graphs:
            if g.edge_count > 9:
                continue
            s = g.edge_count
            graphic = corank_nullity_tutte(lambda A: graphic_rank(g, A), s, graphic_rank(g, range(s)))
            assert tutte_polynomial(g) == graphic
            m = CographicMatroid(g)
            cographic = corank_nullity_tutte(
                lambda A: len(A) + graphic_rank(g, set(range(s)) - set(A)) - graphic_rank(g, range(s)),
                s,
                m.rank,
            )
            swapped = TuttePolynomial({(j, i): c for (i, j), c in cographic.coeffs.items()})
            assert tutte_polynomial(g) == swapped


def cycle(n):
    return MultiGraph(n, [(v, (v + 1) % n) for v in range(n)])


def prism(n):
    """Two n/2-cycles joined by a perfect matching: 3-regular and vertex-transitive."""
    m = n // 2
    edges = [(v, (v + 1) % m) for v in range(m)] + [(m + v, m + (v + 1) % m) for v in range(m)]
    return MultiGraph(n, edges + [(v, m + v) for v in range(m)])


class TestReducedCores:
    """Cycles, prisms and the benchmark's random quivers, whole blocks of one engine or the other."""

    def test_cycles(self):
        for n in (3, 4, 10, 60, 200):
            poly = tutte_polynomial(cycle(n))
            assert poly == TuttePolynomial({**{(i, 0): 1 for i in range(1, n)}, (0, 1): 1})
            # Kirchhoff: an n-cycle has n spanning trees
            assert poly.evaluate(1, 1) == n
            assert poly.evaluate(2, 2) == 2**n
        assert [spanning_tree_count(cycle(n)) for n in (3, 4, 10)] == [3, 4, 10]

    def test_prisms(self):
        for n in range(6, 15, 2):
            g = prism(n)
            poly = tutte_polynomial(g)
            assert poly.evaluate(1, 1) == spanning_tree_count(g)
            assert poly.evaluate(2, 2) == 2**g.edge_count
            if n <= 8:
                assert poly == tutte_polynomial_naive(g)

    def test_same_as_reference_on_benchmark_graphs(self):
        for r, pairs in tutte_cold_pairs(1) + tutte_cold_pairs(2)[:3]:
            assert _tutte(r, pairs) == tutte_reference(r, pairs, {})


def seeded_multigraphs(count, seed):
    """Connected multigraphs with 2 to 7 vertices and up to 14 edges, most with a parallel edge, some with loops."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        g = random_connected_multigraph(rng, max_vertices=7, max_edges=12, allow_loops=len(graphs) % 3 == 0)
        if g.vertex_count < 2:
            continue
        edges = list(g.edges) + [rng.choice(g.edges) for _ in range(rng.randint(0, 2))]
        graphs.append(MultiGraph(g.vertex_count, edges))
    return graphs


class TestFactorProducts:
    """The products of bundles and other blocks that _tutte makes after its engines, charged by _factor_work."""

    def test_term_bounds_hold(self):
        rng = random.Random(83)
        for _ in range(60):
            bundles = [rng.randint(1, 6) for _ in range(rng.randint(1, 6))]
            r = len(bundles) + 1
            pairs = {(i, i + 1): k for i, k in enumerate(bundles)}
            poly = _tutte(r, pairs)
            n = sum(k > 1 for k in bundles)
            e = sum(k - 1 for k in bundles)
            assert len(poly.coeffs) <= (n + 1) * (e - n + 1)
            # a triangle hung on the last vertex: at most (x + 1)(y + 1) terms
            pairs.update({(r - 1, r): 1, (r, r + 1): 1, (r - 1, r + 1): 1})
            poly = _tutte(r + 2, pairs)
            assert len(poly.coeffs) <= (r + 2) * (e + 2)

    @pytest.mark.parametrize("parts, genus", [((2, 1, 1), 33330), ((1, 1, 1), 55550)])
    def test_one_block_partitions_at_the_bound(self, monkeypatch, parts, genus):
        # the last partition inputs accepted, as MAX_TUTTE_WORK's comment
        # records: one block, whose single factor is not charged as a product
        for engine in ("_frontier_tutte", "_class_tutte"):
            monkeypatch.setattr(matroid, engine, lambda *args: TuttePolynomial.monomial(0, 0))
        tutte_polynomial(spectral_dual_graph(Partition(list(parts)), genus))
        with pytest.raises(ResourceLimitError, match="units of work"):
            tutte_polynomial(spectral_dual_graph(Partition(list(parts)), genus + 1))

    def test_square_bundle_chains_at_the_bound(self):
        # the last path of m bundles of m edges accepted, as MAX_TUTTE_WORK's comment records
        assert matroid._factor_work([45] * 45, []) <= matroid.MAX_TUTTE_WORK
        assert matroid._factor_work([46] * 46, []) > matroid.MAX_TUTTE_WORK

    @pytest.mark.parametrize(
        "r, pairs",
        [
            (201, {(i, i + 1): 200 for i in range(200)}),
            (2001, {pair: 1 for i in range(0, 2000, 2) for pair in ((i, i + 1), (i + 1, i + 2), (i, i + 2))}),
        ],
        ids=["200 bundles of 200", "1000 triangles"],
    )
    def test_chains_refused_before_work(self, r, pairs):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="units of work"):
            _tutte(r, pairs)
        assert time.perf_counter() - start < 1.0


class TestEngines:
    """The frontier sweep and the exponential formula over twin classes, each against the keyed oracle."""

    @pytest.mark.parametrize("engine", ["frontier", "classes"])
    def test_each_engine_equals_reference(self, engine):
        graphs = seeded_multigraphs(300, 2718)
        assert max(g.edge_count for g in graphs) == 14
        assert sum(max(g.pair_multiplicities().values()) > 1 for g in graphs) > 200
        for g in graphs:
            pairs = dict(g.pair_multiplicities())
            assert engine_tutte(engine, g.vertex_count, pairs) == tutte_reference(g.vertex_count, pairs, {}), g

    def test_twin_classes(self):
        # K_4 minus the edge 03: 0 and 3 are twins with no edge between them,
        # 1 and 2 twins joined by one edge
        pairs = {(0, 1): 1, (0, 2): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1}
        links = matroid._links(4, pairs)
        assert matroid._twin_classes(links) == [[0, 3], [1, 2]]
        assert matroid._class_matrix(links, [[0, 3], [1, 2]]) == [[0, 1], [1, 1]]
        # a triangle with one double edge: its ends are twins, the third vertex is not
        pairs = {(0, 1): 2, (1, 2): 1, (0, 2): 1}
        links = matroid._links(3, pairs)
        assert matroid._twin_classes(links) == [[0, 1], [2]]
        assert matroid._class_matrix(links, [[0, 1], [2]]) == [[2, 1], [1, 0]]

    @pytest.mark.parametrize(
        "name, graph, engine",
        [
            ("K10", MultiGraph(10, [(u, v) for u in range(10) for v in range(u + 1, 10)]), "_class_tutte"),
            ("1^10 at g=2", spectral_dual_graph(Partition([1] * 10), 2), "_class_tutte"),
            ("seeded r16", MultiGraph(*TIMING_INPUTS["seeded r16"]()), "_frontier_tutte"),
            ("prism C10xK2", prism(20), "_frontier_tutte"),
            ("C_60", cycle(60), "_frontier_tutte"),
            # high-multiplicity blocks, where the sweep takes 3 to 9 times as long
            ("2,1,1 at g=16384", spectral_dual_graph(Partition([2, 1, 1]), 16384), "_class_tutte"),
            ("5,4,3,2,1 at g=100", spectral_dual_graph(Partition([5, 4, 3, 2, 1]), 100), "_class_tutte"),
            ("3,3,2,2,1,1 at g=50", spectral_dual_graph(Partition([3, 3, 2, 2, 1, 1]), 50), "_class_tutte"),
        ]
        + [
            ("tutte_cold slot %d" % slot, MultiGraph(r, [e for e, k in pairs.items() for _ in range(k)]), "_frontier_tutte")
            for slot, (r, pairs) in enumerate(tutte_cold_pairs(1))
        ],
    )
    def test_chosen_engine(self, name, graph, engine):
        # the engine the work estimates pick for every block of three or more vertices
        blocks = matroid._blocks(graph.vertex_count, graph.pair_multiplicities())
        assert {matroid._block_plan(b, pairs)[1].__name__ for b, pairs in blocks if b > 2} == {engine}

    def test_dense_block_refused_quickly(self):
        # K_700: refused once both estimates pass MAX_TUTTE_WORK, before the
        # frontier sweep's steps, which take quadratic time on a dense block
        pairs = {(u, v): 1 for u in range(700) for v in range(u + 1, 700)}
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            _tutte(700, pairs)
        assert time.perf_counter() - start < 0.3


class TestPerCallMemo:
    """No module keeps a memo from one call to the next."""

    def test_no_module_holds_a_memo(self):
        g = spectral_dual_graph(Partition([1] * 5), 2)
        tutte_polynomial(g)
        f_h_vectors(CographicMatroid(g))
        enumerate_strata(spectral_dual_graph(Partition([1] * 4), 2))
        held = [
            (name, attr)
            for name, module in list(sys.modules.items())
            if name.split(".")[0] == "ngostrings"
            for attr, value in vars(module).items()
            if isinstance(value, dict) and any(isinstance(v, TuttePolynomial) for v in value.values())
        ]
        assert held == []


class TestTopBetti:
    def test_banana_family(self):
        for k in range(2, 8):
            assert top_betti_reference(MultiGraph(2, [(0, 1)] * k)) == 1

    def test_doubled_triangle(self):
        assert top_betti_reference(spectral_dual_graph(Partition([1, 1, 1]), 2)) == 2

    def test_tree_convention(self):
        assert top_betti_reference(MultiGraph(4, [(0, 1), (1, 2), (2, 3)])) == 1
        assert top_betti_reference(MultiGraph(1, [])) == 1

    def test_factorial_identity_small(self):
        from math import factorial

        for n in range(2, 7):
            for p in partitions_of(n):
                for genus in (2, 3):
                    g = spectral_dual_graph(p, genus)
                    assert top_betti_reference(g) == factorial(p.r - 1)


class TestFHVectors:
    def test_banana_u12(self):
        f, h = f_h_vectors(CographicMatroid(BANANA2))
        assert f == (1, 2)
        assert h == (1, 1)

    def test_rank_zero(self):
        f, h = f_h_vectors(CographicMatroid(MultiGraph(2, [(0, 1)])))
        assert f == (1,)
        assert h == (1,)

    def test_u34_from_genus_three(self):
        g = spectral_dual_graph(Partition([1, 1]), 3)
        f, h = f_h_vectors(CographicMatroid(g))
        assert f == (1, 4, 6, 4)
        assert h == (1, 1, 1, 1)

    def test_rank_limit_before_work(self):
        g = MultiGraph(2, [(0, 1)] * (MAX_F_VECTOR_RANK + 2))
        with pytest.raises(ResourceLimitError):
            f_h_vectors(CographicMatroid(g))

    def test_top_h_equals_sphere_count(self):
        for n in range(2, 5):
            for p in partitions_of(n):
                g = spectral_dual_graph(p, 2)
                if g.edge_count > 12:
                    continue
                m = CographicMatroid(g)
                _, h = f_h_vectors(m)
                assert h[-1] == top_betti_reference(g)


class TestSpectralTutte:
    ORACLE_INPUTS = [(p, g) for n in range(2, 7) for p in partitions_of(n) if p.r > 1 for g in (2, 3)] + [
        (Partition([1] * r), 2) for r in (7, 8)
    ]

    def test_equals_frontier_sweep(self):
        # the library picks one engine; each engine alone on the built graph
        # is an oracle, and the two share no step
        for p, g in self.ORACLE_INPUTS:
            graph = spectral_dual_graph(p, g)
            poly = tutte_polynomial(graph)
            for engine in ("frontier", "classes"):
                assert poly == engine_tutte(engine, graph.vertex_count, graph.pair_multiplicities()), (p, g, engine)

    def test_single_part_is_one(self):
        for n in (1, 2, 5):
            assert tutte_polynomial(spectral_dual_graph(Partition([n]), 2)) == TuttePolynomial.one()

    @pytest.mark.parametrize(
        "parts, genus",
        [([1] * 20, 2), ([2, 1, 1], 1000), ([4, 3, 3, 2, 2, 1, 1, 1, 1], 2)],
    )
    def test_closed_forms(self, parts, genus):
        p = Partition(parts)
        r, n = p.r, p.n
        s = (genus - 1) * (n * n - sum(v * v for v in parts))
        poly = tutte_polynomial(spectral_dual_graph(p, genus))
        # weighted Cayley formula for the edge weights (2g-2) n_i n_j
        assert poly.evaluate(1, 1) == (2 * genus - 2) ** (r - 1) * n ** (r - 2) * prod(parts)
        assert poly.evaluate(2, 2) == 2**s
        assert poly.evaluate(1, 0) == factorial(r - 1)
        assert max(i for i, _ in poly.coeffs) == r - 1
        assert max(j for _, j in poly.coeffs) == s - r + 1

    @pytest.mark.parametrize(
        "parts, genus",
        [(range(13, 0, -1), 2), ([1] * 200, 2), ([2, 1, 1], 10**6), ([1, 1], 10**4000), ([1] * 1000, 2)],
    )
    def test_refused_before_work(self, parts, genus):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            tutte_polynomial(spectral_dual_graph(Partition(parts), genus))
        assert time.perf_counter() - start < 1.0
