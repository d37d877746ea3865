import ast
import random
import sys
import time
from itertools import combinations
from math import comb, factorial, prod

import pytest

from ngostrings.errors import ResourceLimitError
from ngostrings.graphs import MultiGraph, Quiver, betti1, canonical_key, spectral_dual_graph, spectral_dual_quiver
from ngostrings import matroid
from ngostrings.hypertoric import enumerate_strata
from ngostrings.matroid import (
    KEY_SEARCH_NODES,
    MAX_F_VECTOR_RANK,
    CographicMatroid,
    TutteCache,
    TuttePolynomial,
    f_h_vectors,
    spectral_tutte_polynomial,
    _times_y_geometric,
    _tutte,
    top_betti,
    tutte_polynomial,
)
from ngostrings.partitions import Partition, partitions_of

from conftest import random_connected_multigraph, tutte_cold_pairs, tutte_polynomial_naive, tutte_reference

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
    for iset in matroid.independent_sets():
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

    def test_y_geometric_product(self):
        rng = random.Random(8)
        for _ in range(50):
            p = TuttePolynomial({(rng.randrange(4), rng.randrange(6)): rng.randint(-3, 3) for _ in range(6)})
            k = rng.randint(1, 5)
            geometric = TuttePolynomial({(0, j): 1 for j in range(k)})
            assert _times_y_geometric(p, k) == p * geometric


class TestIndependence:
    def test_banana(self):
        m = CographicMatroid(BANANA2)
        assert m.is_independent([0])
        assert m.is_independent([1])
        assert not m.is_independent([0, 1])
        assert m.rank == 1

    def test_tree_rank_zero(self):
        m = CographicMatroid(MultiGraph(3, [(0, 1), (1, 2)]))
        assert m.rank == 0
        assert m.is_independent([])
        assert not m.is_independent([0])
        assert not m.is_independent([1])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            CographicMatroid(BANANA2).is_independent([5])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            CographicMatroid(MultiGraph(2, []))


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

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            tutte_polynomial(MultiGraph(3, [(0, 1)]))

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

    def test_memoized_equals_naive(self):
        rng = random.Random(17)
        for _ in range(100):
            g = random_connected_multigraph(rng, max_vertices=5, max_edges=8, allow_loops=True)
            poly = tutte_polynomial(g, cache=TutteCache())
            assert poly == tutte_polynomial_naive(g)
            assert all(c > 0 for c in poly.coeffs.values())

    @pytest.mark.parametrize("n, entries", [(6, 42), (7, 99), (8, 219)])
    def test_memo_entries_on_spectral_graphs(self, n, entries):
        # one entry per reduced core (2-connected, three or more vertices, no
        # series vertex) that the recursion keys; the counts pin which cores
        # those are, so a change of key, reduction or bundle order shows here.
        # The graph itself is such a core, and its key is stored
        cache = TutteCache()
        g = spectral_dual_graph(Partition([1] * n), 2)
        tutte_polynomial(g, cache=cache)
        assert len(cache) == entries
        assert cache.get(canonical_key(g)) is not None

    def test_quiver_same_as_underlying(self):
        rng = random.Random(23)
        quivers = [spectral_dual_quiver(Partition(p), 2) for p in ([1, 1, 1], [2, 1, 1], [1, 1, 1, 1])]
        while len(quivers) < 23:
            g = random_connected_multigraph(rng, max_vertices=5, max_edges=8, allow_loops=True)
            quivers.append(Quiver.from_graph(g))
        for q in quivers:
            g = q.underlying()
            assert tutte_polynomial(q, cache=TutteCache()) == tutte_polynomial(g, cache=TutteCache())
            assert top_betti(q, cache=TutteCache()) == top_betti(g, cache=TutteCache())
            assert betti1(q) == betti1(g)
            assert canonical_key(q) == canonical_key(g)
            mq, mg = CographicMatroid(q), CographicMatroid(g)
            assert (mq.rank, mq.size) == (mg.rank, mg.size)
            assert f_h_vectors(mq, cache=TutteCache()) == f_h_vectors(mg, cache=TutteCache())

    def test_warm_cache_identical(self):
        # 2,1,1 at genus 2 is a triangle of bundles 4, 4, 2: one reduced core,
        # stored cold and hit warm
        cache = TutteCache()
        g = spectral_dual_graph(Partition([2, 1, 1]), 2)
        cold = tutte_polynomial(g, cache=cache)
        assert len(cache) > 0
        stored = len(cache)
        warm = tutte_polynomial(g, cache=cache)
        assert cold == warm
        assert len(cache) == stored

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


def key_graph(key):
    """(r, pair multiplicities) of the multigraph a canonical key encodes."""
    r, rows = ast.literal_eval(key.decode("ascii"))
    pairs = {}
    at = 0
    for k in range(r):
        row = rows[at : at + k + 1]
        at += k + 1
        for i, m in enumerate(row):
            if m:
                # row k lists the loops of the k-th vertex, then its edges to the earlier ones
                pairs[(i - 1, k) if i else (k, k)] = m
    return r, pairs


class TestReducedCores:
    """The Tutte recursion keys only 2-connected loopless cores with no series vertex."""

    def test_cycles(self):
        for n in (3, 4, 10, 60, 200):
            poly = tutte_polynomial(cycle(n), cache=TutteCache())
            assert poly == TuttePolynomial({**{(i, 0): 1 for i in range(1, n)}, (0, 1): 1})
            # Kirchhoff: an n-cycle has n spanning trees
            assert poly.evaluate(1, 1) == n
            assert poly.evaluate(2, 2) == 2**n
        assert [spanning_tree_count(cycle(n)) for n in (3, 4, 10)] == [3, 4, 10]

    def test_prisms(self):
        for n in range(6, 15, 2):
            g = prism(n)
            poly = tutte_polynomial(g, cache=TutteCache())
            assert poly.evaluate(1, 1) == spanning_tree_count(g)
            assert poly.evaluate(2, 2) == 2**g.edge_count
            if n <= 8:
                assert poly == tutte_polynomial_naive(g)
        # the 14-vertex prism's top key runs out of search budget
        pairs = prism(14).pair_multiplicities()
        assert matroid.pairs_canonical_key(14, pairs, KEY_SEARCH_NODES) is None

    def test_same_as_reference_on_benchmark_graphs(self):
        for r, pairs in tutte_cold_pairs(1) + tutte_cold_pairs(2)[:3]:
            assert _tutte(r, pairs, TutteCache()) == tutte_reference(r, pairs, TutteCache())

    def test_stored_keys_are_reduced_cores(self):
        cache = TutteCache()
        graphs = [prism(10), spectral_dual_graph(Partition([2, 1, 1, 1]), 2)]
        for r, pairs in tutte_cold_pairs(4)[:3]:
            graphs.append(MultiGraph(r, [e for e, k in pairs.items() for _ in range(k)]))
        for g in graphs:
            tutte_polynomial(g, cache=cache)
        assert len(cache) > 50
        for key, poly in cache.items():
            r, pairs = key_graph(key)
            g = MultiGraph(r, [e for e, k in pairs.items() for _ in range(k)])
            assert matroid.pairs_canonical_key(r, pairs) == key
            assert r >= 3 and all(u != v for u, v in pairs)
            assert g.is_connected()
            for v in range(r):
                # no cut vertex, and no vertex joined to two others by one edge each
                rest = [u for u in range(r) if u != v]
                index = {u: i for i, u in enumerate(rest)}
                minus = MultiGraph(r - 1, [(index[a], index[b]) for a, b in g.edges if v not in (a, b)])
                assert minus.is_connected()
                link = [(u if w == v else w, k) for (u, w), k in pairs.items() if v in (u, w)]
                assert not (len(link) == 2 and link[0][1] == link[1][1] == 1)
            assert poly == tutte_polynomial(g, cache=TutteCache())

    def test_without_keys_same_answers(self, monkeypatch):
        # a budget of no search node: no core is keyed, no entry stored
        monkeypatch.setattr(matroid, "KEY_SEARCH_NODES", 0)
        rng = random.Random(41)
        for _ in range(30):
            g = random_connected_multigraph(rng, max_vertices=6, max_edges=12, allow_loops=True)
            cache = TutteCache()
            assert tutte_polynomial(g, cache=cache) == tutte_polynomial_naive(g)
            assert len(cache) == 0

    def test_deterministic_memo(self):
        for g in (prism(14), prism(10), spectral_dual_graph(Partition([1] * 6), 2)):
            first, second = TutteCache(), TutteCache()
            assert tutte_polynomial(g, cache=first) == tutte_polynomial(g, cache=second)
            assert first.items() == second.items()


class TestPerCallMemo:
    """A call made without cache= keeps its memo to itself."""

    def test_no_module_holds_a_memo(self):
        g = spectral_dual_graph(Partition([1] * 5), 2)
        tutte_polynomial(g)
        top_betti(g)
        f_h_vectors(CographicMatroid(g))
        enumerate_strata(spectral_dual_quiver(Partition([1] * 4), 2))
        held = [
            (name, attr)
            for name, module in list(sys.modules.items())
            if name.split(".")[0] == "ngostrings"
            for attr, value in vars(module).items()
            if isinstance(value, TutteCache)
        ]
        assert held == []

    def test_explicit_cache_does_not_reach_a_later_call(self):
        g = spectral_dual_graph(Partition([1] * 4), 2)
        quiver = spectral_dual_quiver(Partition([1] * 4), 2)
        cold = tutte_polynomial(g), enumerate_strata(quiver)
        cache = TutteCache()
        tutte_polynomial(g, cache=cache)
        enumerate_strata(quiver, cache=cache)
        poison = TuttePolynomial({(0, 0): 999})
        cache.load([(key, poison) for key, _ in cache.items()])
        assert tutte_polynomial(g, cache=cache) == poison
        assert (tutte_polynomial(g), enumerate_strata(quiver)) == cold


class TestTopBetti:
    def test_banana_family(self):
        for k in range(2, 8):
            assert top_betti(MultiGraph(2, [(0, 1)] * k)) == 1

    def test_doubled_triangle(self):
        assert top_betti(spectral_dual_graph(Partition([1, 1, 1]), 2)) == 2

    def test_tree_convention(self):
        assert top_betti(MultiGraph(4, [(0, 1), (1, 2), (2, 3)])) == 1
        assert top_betti(MultiGraph(1, [])) == 1

    def test_factorial_identity_small(self):
        from math import factorial

        for n in range(2, 7):
            for p in partitions_of(n):
                for genus in (2, 3):
                    g = spectral_dual_graph(p, genus)
                    assert top_betti(g) == factorial(p.r - 1)


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
        cache = TutteCache()
        with pytest.raises(ResourceLimitError):
            f_h_vectors(CographicMatroid(g), cache=cache)
        assert len(cache) == 0

    def test_top_h_equals_sphere_count(self):
        for n in range(2, 5):
            for p in partitions_of(n):
                g = spectral_dual_graph(p, 2)
                if g.edge_count > 12:
                    continue
                m = CographicMatroid(g)
                _, h = f_h_vectors(m)
                assert h[-1] == top_betti(g)


class TestSpectralTutte:
    ORACLE_INPUTS = (
        [(p, g) for n in range(1, 7) for p in partitions_of(n) for g in (2, 3)]
        + [(Partition([1] * r), 2) for r in (7, 8, 9)]
        + [(Partition([2, 1, 1, 1]), 4)]
    )

    def test_equals_deletion_contraction(self):
        # the memoized deletion-contraction of the built graph is the oracle
        cache = TutteCache()
        for p, g in self.ORACLE_INPUTS:
            expected = tutte_polynomial(spectral_dual_graph(p, g), cache=cache)
            assert spectral_tutte_polynomial(p, g) == expected, (p, g)

    def test_single_part_is_one(self):
        for n in (1, 2, 5):
            assert spectral_tutte_polynomial(Partition([n]), 2) == TuttePolynomial.one()

    @pytest.mark.parametrize("parts, genus", [([2, 1], 1), ([3], 0), ([1, 1, 1], -4)])
    def test_genus_below_two_same_error(self, parts, genus):
        with pytest.raises(ValueError) as built:
            spectral_dual_graph(Partition(parts), genus)
        with pytest.raises(ValueError) as engine:
            spectral_tutte_polynomial(Partition(parts), genus)
        assert str(engine.value) == str(built.value)

    @pytest.mark.parametrize(
        "parts, genus",
        [([1] * 20, 2), ([2, 1, 1], 1000), ([4, 3, 3, 2, 2, 1, 1, 1, 1], 2)],
    )
    def test_closed_forms(self, parts, genus):
        p = Partition(parts)
        r, n = p.r, p.n
        s = (genus - 1) * (n * n - sum(v * v for v in parts))
        poly = spectral_tutte_polynomial(p, genus)
        # weighted Cayley formula for the edge weights (2g-2) n_i n_j
        assert poly.evaluate(1, 1) == (2 * genus - 2) ** (r - 1) * n ** (r - 2) * prod(parts)
        assert poly.evaluate(2, 2) == 2**s
        assert poly.evaluate(1, 0) == factorial(r - 1)
        assert max(i for i, _ in poly.coeffs) == r - 1
        assert max(j for _, j in poly.coeffs) == s - r + 1

    @pytest.mark.parametrize(
        "parts, genus",
        [(range(13, 0, -1), 2), ([1] * 200, 2), ([2, 1, 1], 10**6), ([1, 1], 10**4000)],
    )
    def test_refused_before_work(self, parts, genus):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            spectral_tutte_polynomial(Partition(parts), genus)
        assert time.perf_counter() - start < 1.0
