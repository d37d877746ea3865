import json
import random
from collections import Counter
from itertools import permutations

import pytest

from ngostrings import graphs, hypertoric
from ngostrings.errors import ResourceLimitError
from ngostrings.graphs import (
    MultiGraph,
    VertexPartition,
    betti1,
    boundary_matrix,
    canonical_key,
    dump_graph,
    load_graph,
    pairs_canonical_key,
    spectral_dual_graph,
    to_dot,
)
from ngostrings.intlinalg import _eliminate, _sparse_rows
from ngostrings.partitions import Partition, partitions_of, set_partitions

from conftest import (
    contract_counting_loops,
    pairs_canonical_key_reference,
    random_connected_multigraph,
    tutte_cold_pairs,
)


def isomorphic_by_brute_force(g1, g2):
    """Exhaustive bijection search on multiplicity matrices (test oracle)."""
    if g1.vertex_count != g2.vertex_count or g1.edge_count != g2.edge_count:
        return False
    m1 = g1.pair_multiplicities()
    m2 = g2.pair_multiplicities()
    r = g1.vertex_count
    for perm in permutations(range(r)):
        ok = True
        for (u, v), k in m1.items():
            pu, pv = perm[u], perm[v]
            if m2.get((min(pu, pv), max(pu, pv)), 0) != k:
                ok = False
                break
        if ok and sum(m1.values()) == sum(m2.values()):
            return True
    return False


def relabel(graph, perm):
    return MultiGraph(
        graph.vertex_count, [(perm[u], perm[v]) for u, v in graph.edges]
    )


class TestMultiGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            MultiGraph(0, [])
        with pytest.raises(ValueError):
            MultiGraph(2, [(0, 2)])

    def test_edge_order_is_identity(self):
        a = MultiGraph(2, [(0, 1), (1, 0)])
        b = MultiGraph(2, [(1, 0), (0, 1)])
        assert a != b

    def test_connectivity(self):
        assert MultiGraph(1, []).is_connected()
        assert not MultiGraph(2, []).is_connected()
        assert MultiGraph(3, [(0, 1), (1, 2)]).is_connected()
        assert not MultiGraph(4, [(0, 1), (2, 3)]).is_connected()
        # loops do not connect anything
        assert not MultiGraph(2, [(0, 0), (1, 1)]).is_connected()

    def test_too_few_edges_to_connect(self):
        # answered from the edge count alone, with no per-vertex work
        assert not MultiGraph(10**9, [(0, 1), (1, 2)]).is_connected()
        # enough edges, but loops: the search decides
        assert not MultiGraph(3, [(0, 1), (1, 1), (2, 2)]).is_connected()

    def test_repr(self):
        assert repr(MultiGraph(2, [(0, 1)])) == "MultiGraph(2, [(0, 1)])"

    def test_runs_are_maximal(self):
        g = MultiGraph(3, [(0, 1), (0, 1), (1, 0), (0, 1), (2, 2), (2, 2), (1, 2)])
        assert (g._pairs, g._counts) == (((0, 1), (1, 0), (0, 1), (2, 2), (1, 2)), (2, 1, 1, 2, 1))
        assert g.edge_count == 7
        assert g.pair_multiplicities() == {(0, 1): 4, (2, 2): 2, (1, 2): 1}

    def test_spectral_graph_equals_its_edge_list(self):
        for n in range(1, 7):
            for p in partitions_of(n):
                for genus in (2, 3, 7):
                    g = spectral_dual_graph(p, genus)
                    again = MultiGraph(g.vertex_count, g.edges)
                    assert again == g and hash(again) == hash(g)
                    assert (again._pairs, again._counts) == (g._pairs, g._counts)
                    assert again.pair_multiplicities() == g.pair_multiplicities()

    def test_edges_keep_their_positions(self):
        # loops and parallel edges interleaved, in both orientations
        rng = random.Random(31)
        for _ in range(300):
            r = rng.randint(1, 3)
            edges = [(rng.randrange(r), rng.randrange(r)) for _ in range(rng.randint(0, 12))]
            g = MultiGraph(r, edges)
            assert g.edges == tuple(edges)
            assert g.edge_count == len(edges)
            assert repr(g) == "MultiGraph(%d, %r)" % (r, edges)
            expected = Counter((min(e), max(e)) for e in edges)
            assert list(g.pair_multiplicities().items()) == list(expected.items())


class TestSpectralDualGraph:
    def test_two_two_genus_two(self):
        g = spectral_dual_graph(Partition([2, 2]), 2)
        assert g.vertex_count == 2
        assert g.edge_count == 8
        assert betti1(g) == 7

    def test_two_one_one_genus_two(self):
        g = spectral_dual_graph(Partition([2, 1, 1]), 2)
        mult = g.pair_multiplicities()
        assert mult[(0, 1)] == 4 and mult[(0, 2)] == 4 and mult[(1, 2)] == 2
        assert g.edge_count == 10
        assert betti1(g) == 8

    def test_one_part(self):
        for g in (2, 3, 7):
            graph = spectral_dual_graph(Partition([5]), g)
            assert graph.vertex_count == 1 and graph.edge_count == 0
            assert betti1(graph) == 0

    def test_no_loops_and_connected(self):
        for n in range(2, 7):
            from ngostrings.partitions import partitions_of

            for p in partitions_of(n):
                g = spectral_dual_graph(p, 2)
                assert all(u != v for u, v in g.edges)
                assert g.is_connected()

    def test_genus_guard(self):
        with pytest.raises(ValueError):
            spectral_dual_graph(Partition([2, 1]), 1)

    def test_size_limit_checked_before_building(self):
        # about 10**13 edges: refused from the edge count alone
        with pytest.raises(ResourceLimitError):
            spectral_dual_graph(Partition([2, 1, 1]), 10**12)

    def test_size_limit_bounds_vertices_plus_edges(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_GRAPH_SIZE", 10)
        assert spectral_dual_graph(Partition([1, 1]), 5).edge_count == 8
        with pytest.raises(ResourceLimitError):
            spectral_dual_graph(Partition([1, 1]), 6)
        assert to_dot(MultiGraph(2, [(0, 1)] * 8)).count(" -- ") == 8
        with pytest.raises(ResourceLimitError):
            to_dot(MultiGraph(10, [(0, 1)]))


class TestBetti:
    def test_tree(self):
        assert betti1(MultiGraph(4, [(0, 1), (1, 2), (1, 3)])) == 0

    def test_banana(self):
        assert betti1(MultiGraph(2, [(0, 1), (0, 1)])) == 1

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            betti1(MultiGraph(2, []))


TRIANGLE = MultiGraph(3, [(0, 1), (1, 2), (2, 0)])


_WEIGHTED_K4 = {(0, 1): 1, (0, 2): 2, (0, 3): 1, (1, 2): 1, (1, 3): 3, (2, 3): 1}
_WEIGHTED_K4_LINKS = [
    [(1, 1), (2, 2), (3, 1)],
    [(0, 1), (2, 1), (3, 3)],
    [(0, 2), (1, 1), (3, 1)],
    [(0, 1), (1, 3), (2, 1)],
]

# (pairs, index, relabelled items in order, loops, links of pairs)
RELABEL_CASES = {
    "identity splits off loops and normalises keys": (
        {(0, 0): 2, (2, 1): 3, (0, 1): 1},
        range(3),
        [((1, 2), 3), ((0, 1), 1)],
        2,
        [[(1, 1)], [(2, 3), (0, 1)], [(1, 3)]],
    ),
    "None drops a vertex with its edges": (
        {(0, 1): 1, (1, 1): 5, (1, 2): 2, (0, 2): 4},
        [0, None, 1],
        [((0, 1), 4)],
        0,
        [[(1, 1), (2, 4)], [(0, 1), (2, 2)], [(1, 2), (0, 4)]],
    ),
    "a merge counts the merged edges as loops": (
        {(0, 1): 2, (1, 2): 1, (0, 2): 3},
        [0, 0, 1],
        [((0, 1), 4)],
        2,
        [[(1, 2), (2, 3)], [(0, 2), (2, 1)], [(1, 1), (0, 3)]],
    ),
    "a block_of dict": (
        _WEIGHTED_K4,
        VertexPartition([(0, 2), (1, 3)]).block_of(),
        [((0, 1), 4)],
        5,
        _WEIGHTED_K4_LINKS,
    ),
    "the equal list": (_WEIGHTED_K4, [0, 1, 0, 1], [((0, 1), 4)], 5, _WEIGHTED_K4_LINKS),
}


class TestContract:
    @pytest.mark.parametrize("case", RELABEL_CASES)
    def test_relabel_and_links(self, case):
        pairs, index, relabelled, loops, links = RELABEL_CASES[case]
        out, counted = graphs._relabel(pairs, index)
        assert (list(out.items()), counted) == (relabelled, loops)
        assert graphs._links(len(index), pairs) == links

    def test_triangle_merge_two(self):
        q, dropped = contract_counting_loops(TRIANGLE, VertexPartition([(0, 1), (2,)]))
        assert q.vertex_count == 2
        assert q.edges == ((0, 1), (1, 0))
        assert dropped == 1

    def test_singletons_identity(self):
        assert contract_counting_loops(TRIANGLE, VertexPartition.singletons(3)) == (TRIANGLE, 0)

    def test_one_block_kills_everything(self):
        q, dropped = contract_counting_loops(TRIANGLE, VertexPartition.one_block(3))
        assert q.vertex_count == 1 and q.edge_count == 0
        assert dropped == 3

    def test_malformed_partition(self):
        with pytest.raises(ValueError):
            contract_counting_loops(TRIANGLE, VertexPartition([(0, 1)]))
        with pytest.raises(ValueError):
            VertexPartition([(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            VertexPartition([])

    def test_composition_exhaustive_small(self):
        quivers = [
            TRIANGLE,
            MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
            MultiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]),
        ]
        for quiver in quivers:
            r = quiver.vertex_count
            for blocks in set_partitions(range(r)):
                vp = VertexPartition(blocks)
                first = contract_counting_loops(quiver, vp)[0]
                index = vp.block_of()
                for blocks2 in set_partitions(range(len(vp.blocks))):
                    vp2 = VertexPartition(blocks2)
                    coarse_blocks = [
                        tuple(v for v in range(r) if index[v] in b2) for b2 in vp2.blocks
                    ]
                    coarser = VertexPartition(coarse_blocks)
                    left = contract_counting_loops(first, vp2)[0]
                    right = contract_counting_loops(quiver, coarser)[0]
                    assert left == right

    def test_betti_never_increases_for_connected_blocks(self):
        # Contracting a block that is disconnected inside the graph can create
        # cycles (merge the endpoints of a path), so the monotonicity only
        # holds when every block induces a connected subgraph.  The spectral
        # dual graphs are complete, so there every block qualifies.
        def blocks_connected(graph, blocks):
            mult = graph.pair_multiplicities()
            for block in blocks:
                if len(block) == 1:
                    continue
                reached = {block[0]}
                frontier = [block[0]]
                while frontier:
                    x = frontier.pop()
                    for y in block:
                        if y not in reached and mult.get((min(x, y), max(x, y)), 0):
                            reached.add(y)
                            frontier.append(y)
                if len(reached) != len(block):
                    return False
            return True

        rng = random.Random(7)
        for _ in range(25):
            g = random_connected_multigraph(rng)
            quiver = g
            for blocks in set_partitions(range(g.vertex_count)):
                vp = VertexPartition(blocks)
                if not blocks_connected(g, vp.blocks):
                    continue
                contracted = contract_counting_loops(quiver, vp)[0]
                assert betti1(contracted) <= betti1(g)

    def test_betti_never_increases_on_spectral_graphs(self):
        from ngostrings.partitions import partitions_of

        for n in range(2, 6):
            for p in partitions_of(n):
                quiver = spectral_dual_graph(p, 2)
                base = betti1(quiver)
                for blocks in set_partitions(range(quiver.vertex_count)):
                    contracted = contract_counting_loops(quiver, VertexPartition(blocks))[0]
                    assert betti1(contracted) <= base


class TestBoundaryMatrix:
    def test_single_edge(self):
        A = boundary_matrix(MultiGraph(2, [(0, 1)]))
        assert A.data == [[1]]

    def test_triangle_columns(self):
        assert boundary_matrix(TRIANGLE).data == [[1, -1, 0], [0, 1, -1]]

    def test_loop_gives_zero_column(self):
        assert boundary_matrix(MultiGraph(2, [(0, 1), (1, 1)])).data == [[1, 0]]

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            boundary_matrix(MultiGraph(1, []))

    def test_needs_connected(self):
        with pytest.raises(ValueError):
            boundary_matrix(MultiGraph(3, [(0, 1)]))

    def test_full_rank_for_connected(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_connected_multigraph(rng, allow_loops=True)
            if g.vertex_count < 2:
                continue
            A = boundary_matrix(g)
            assert len(_eliminate(_sparse_rows(A.data))[0]) == g.vertex_count - 1


class TestCanonicalKey:
    def test_triangle_relabelings(self):
        base = MultiGraph(3, [(0, 1), (1, 2), (2, 0)])
        keys = {canonical_key(relabel(base, perm)) for perm in permutations(range(3))}
        assert len(keys) == 1

    def test_banana_vs_path(self):
        banana = MultiGraph(2, [(0, 1), (0, 1)])
        path = MultiGraph(3, [(0, 1), (1, 2)])
        assert canonical_key(banana) != canonical_key(path)

    def test_spectral_graph_relabelings(self):
        base = spectral_dual_graph(Partition([2, 2]), 2)
        keys = {canonical_key(relabel(base, perm)) for perm in permutations(range(2))}
        assert len(keys) == 1

    def test_loops_matter(self):
        a = MultiGraph(2, [(0, 1), (0, 0)])
        b = MultiGraph(2, [(0, 1), (1, 1)])
        c = MultiGraph(2, [(0, 1)])
        assert canonical_key(a) == canonical_key(b)
        assert canonical_key(a) != canonical_key(c)

    def test_star_is_fast(self):
        star = MultiGraph(11, [(0, v) for v in range(1, 11)])
        relabeled = relabel(star, [10] + list(range(10)))
        assert canonical_key(star) == canonical_key(relabeled)

    def test_random_relabelings_equal(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_connected_multigraph(rng, max_vertices=5, max_edges=6, allow_loops=True)
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            assert canonical_key(g) == canonical_key(relabel(g, perm))

    def test_non_isomorphic_pairs_differ(self):
        rng = random.Random(31)
        pairs = 0
        while pairs < 100:
            g1 = random_connected_multigraph(rng, max_vertices=5, max_edges=7, allow_loops=True)
            g2 = random_connected_multigraph(rng, max_vertices=5, max_edges=7, allow_loops=True)
            if isomorphic_by_brute_force(g1, g2):
                continue
            assert canonical_key(g1) != canonical_key(g2)
            pairs += 1

    def test_orientation_invariance(self):
        a = MultiGraph(2, [(0, 1), (0, 1)])
        b = MultiGraph(2, [(0, 1), (1, 0)])
        assert canonical_key(a) == canonical_key(b)


    def test_same_bytes_as_reference_on_random_multigraphs(self):
        # the key bytes are cache-file keys and the strata sort key
        rng = random.Random(1212)
        graphs_ = [spectral_dual_graph(p, g) for n in range(2, 6) for p in partitions_of(n) for g in (2, 3)]
        for _ in range(3000):
            graphs_.append(
                random_connected_multigraph(
                    rng, max_vertices=rng.randint(1, 9), max_edges=rng.randint(0, 22), allow_loops=True
                )
            )
        for g in graphs_:
            pairs = g.pair_multiplicities()
            assert pairs_canonical_key(g.vertex_count, pairs) == pairs_canonical_key_reference(g.vertex_count, pairs)

    def test_same_bytes_as_reference_on_recursion_keys(self, monkeypatch):
        # every key that enumerate_strata computes, once per vertex partition,
        # on the benchmark's 7- and 8-vertex random quivers
        met = []
        exact = hypertoric.pairs_canonical_key

        def recording(r, pairs):
            key = exact(r, pairs)
            met.append((r, dict(pairs), key))
            return key

        monkeypatch.setattr(hypertoric, "pairs_canonical_key", recording)
        for r, pairs in tutte_cold_pairs(1):
            if r <= 8:
                hypertoric.enumerate_strata(MultiGraph(r, [e for e, k in pairs.items() for _ in range(k)]))
        distinct = {(r, tuple(sorted(pairs.items()))): key for r, pairs, key in met}
        assert len(distinct) > 1000
        for (r, pairs), key in distinct.items():
            assert key == pairs_canonical_key_reference(r, dict(pairs))

    def test_budget(self):
        # colour refinement at its weakest and strongest: a cycle stays one
        # class and ties every independent vertex set, the lopsided graph has
        # every vertex separated, and twins collapse a complete graph
        cycle = {(v, v + 1): 1 for v in range(9)}
        cycle[(0, 9)] = 1
        lopsided = {(0, 1): 1, (1, 2): 2, (2, 3): 3, (0, 2): 4}
        complete = {(u, v): 2 for u in range(12) for v in range(u + 1, 12)}
        for r, pairs in ((10, cycle), (4, lopsided), (12, complete)):
            assert pairs_canonical_key(r, pairs) == pairs_canonical_key_reference(r, pairs)


class TestSerialization:
    def test_round_trip(self):
        text = dump_graph(TRIANGLE)
        back = load_graph(text)
        assert back == TRIANGLE

    @pytest.mark.parametrize(
        "graph",
        [
            MultiGraph(1, []),
            MultiGraph(1, [(0, 0), (0, 0)]),
            MultiGraph(3, [(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)]),
            MultiGraph(12, [(11, 10)] * 3 + [(0, 11)]),
            spectral_dual_graph(Partition([2, 1, 1]), 2),
        ],
    )
    def test_same_bytes_as_indented_json(self, graph):
        payload = {"format": "graph/1", "vertices": graph.vertex_count, "edges": [list(e) for e in graph.edges]}
        assert dump_graph(graph) == json.dumps(payload, indent=2) + "\n"

    def test_rejects_bad_format(self):
        with pytest.raises(ValueError):
            load_graph("{}")
        with pytest.raises(ValueError):
            load_graph("not json")
        with pytest.raises(ValueError):
            load_graph('{"format": "graph/999", "vertices": 1, "edges": []}')

    def test_dot_output(self):
        dot = to_dot(MultiGraph(2, [(0, 1)]))
        assert "graph" in dot and "0 -- 1" in dot
        ddot = to_dot(TRIANGLE, directed=True)
        assert "digraph" in ddot and "0 -> 1" in ddot and "2 -> 0" in ddot
        assert to_dot(TRIANGLE) == ddot.replace("digraph", "graph").replace("->", "--")

    def test_spectral_quiver_orientation(self):
        q = spectral_dual_graph(Partition([2, 1]), 2)
        assert all(u < v for u, v in q.edges)
