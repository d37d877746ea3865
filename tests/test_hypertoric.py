import random

import pytest

from ngostrings import hypertoric
from ngostrings.errors import ResourceLimitError
from ngostrings.graphs import (
    MultiGraph,
    VertexPartition,
    betti1,
    boundary_matrix,
    canonical_key,
    spectral_dual_graph,
)
from ngostrings.hypertoric import (
    MAX_STRATA_VERTICES,
    _sphere_count,
    circuit_relations,
    enumerate_strata,
    local_model_dims,
    spectral_strata,
)
from ngostrings.partitions import Partition, partitions_of, set_partitions

from conftest import (
    certify_small_bell_walk,
    contract_counting_loops,
    enumerate_strata_reference,
    random_connected_multigraph,
    top_betti_reference,
)

BANANA = MultiGraph(2, [(0, 1), (0, 1)])
TRIANGLE = MultiGraph(3, [(0, 1), (1, 2), (2, 0)])


class TestCircuitRelations:
    def test_triangle(self):
        rels = circuit_relations(TRIANGLE)
        assert [rel.coefficients for rel in rels] == [(1, -1, 0), (0, 1, -1)]
        assert [rel.index for rel in rels] == [2, 3]
        assert str(rels[0]) == "z1*w1 - z2*w2"
        assert str(rels[1]) == "z2*w2 - z3*w3"

    def test_single_edge(self):
        rels = circuit_relations(MultiGraph(2, [(0, 1)]))
        assert len(rels) == 1
        assert rels[0].coefficients == (1,)
        assert str(rels[0]) == "z1*w1"

    def test_one_vertex(self):
        assert circuit_relations(MultiGraph(1, [])) == []

    def test_rows_match_boundary_matrix(self):
        for n in range(2, 6):
            for p in partitions_of(n):
                if p.r < 2:
                    continue
                q = spectral_dual_graph(p, 2)
                A = boundary_matrix(q)
                rels = circuit_relations(q)
                assert len(rels) == q.vertex_count - 1
                assert [list(rel.coefficients) for rel in rels] == A.data


class TestStrata:
    def test_banana_two_strata(self):
        records = enumerate_strata(BANANA)
        assert len(records) == 2
        opener, point = records
        assert len(opener.vp.blocks) == 1
        assert opener.codim_in_Y == 0 and opener.codim_in_X == 0
        assert opener.multiplicity == 1
        assert opener.deleted_loops == 2
        assert point.vp.blocks == ((0,), (1,))
        assert point.codim_in_Y == 2 and point.codim_in_X == 3
        assert point.fiber_dim == 1
        assert point.multiplicity == 1

    def test_one_vertex(self):
        records = enumerate_strata(MultiGraph(1, []))
        assert len(records) == 1
        assert records[0].codim_in_Y == 0

    def test_doubled_triangle_bell_count(self):
        q = spectral_dual_graph(Partition([1, 1, 1]), 2)
        records = enumerate_strata(q)
        assert len(records) == 5
        deepest = records[-1]
        assert deepest.vp.blocks == ((0,), (1,), (2,))
        assert deepest.multiplicity == 2

    def test_stratum_invariants(self):
        for p in [Partition([1, 1, 1]), Partition([2, 1, 1]), Partition([2, 2])]:
            q = spectral_dual_graph(p, 2)
            records = enumerate_strata(q)
            for rec in records:
                assert rec.codim_in_Y == 2 * rec.b1_contracted
                assert rec.fiber_dim == rec.b1_contracted
                assert rec.codim_in_X == rec.b1_contracted + rec.s_contracted
                assert 2 * rec.fiber_dim == rec.codim_in_Y
            assert records[0].multiplicity == 1
            codims = [rec.codim_in_Y for rec in records]
            assert codims == sorted(codims)

    def test_records_match_edge_list_contraction(self):
        rng = random.Random(2022)
        quivers = [random_connected_multigraph(rng, allow_loops=True) for _ in range(25)]
        quivers += [spectral_dual_graph(p, 2) for n in range(2, 5) for p in partitions_of(n)]
        for quiver in quivers:
            records = enumerate_strata(quiver)
            expected = []
            for blocks in set_partitions(range(quiver.vertex_count)):
                vp = VertexPartition(blocks)
                contracted, dropped = contract_counting_loops(quiver, vp)
                b1 = betti1(contracted)
                fields = (contracted.edge_count, dropped, b1, top_betti_reference(contracted))
                expected.append(((2 * b1, b1 + contracted.edge_count, canonical_key(contracted), vp.blocks), fields))
            expected.sort(key=lambda item: item[0])
            assert [rec.vp.blocks for rec in records] == [key[3] for key, _ in expected], quiver
            for rec, (_, fields) in zip(records, expected):
                assert (rec.s_contracted, rec.deleted_loops, rec.b1_contracted, rec.multiplicity) == fields, (
                    quiver,
                    rec.vp,
                )

    def test_coarsening_classes_match_reference(self):
        for n in range(1, 8):
            for p in partitions_of(n):
                for g in (2, 3):
                    assert spectral_strata(p, g) == enumerate_strata_reference(spectral_dual_graph(p, g)), (p, g)

    def test_quiver_path_matches_reference(self):
        rng = random.Random(1103)
        for _ in range(40):
            graph = random_connected_multigraph(rng, max_vertices=6, max_edges=12, allow_loops=True)
            quiver = graph
            assert enumerate_strata(quiver) == enumerate_strata_reference(quiver)

    def test_each_vertex_partition_contracted_once(self, monkeypatch):
        # a seeded 8-vertex quiver with a loop and parallel edges: one
        # contraction per vertex partition, Bell(8) = 4140 of them
        rng = random.Random(8)
        edges = [(rng.randrange(v), v) for v in range(1, 8)] + [(3, 3), (1, 5), (1, 5)]
        edges += [(rng.randrange(8), rng.randrange(8)) for _ in range(8)]
        calls = []
        relabel = hypertoric._relabel

        def counting(*args):
            calls.append(args)
            return relabel(*args)

        monkeypatch.setattr(hypertoric, "_relabel", counting)
        assert len(enumerate_strata(MultiGraph(8, edges))) == len(calls) == 4140

    def test_coarsening_classes_count_no_spheres(self, monkeypatch):
        def no_count(*args, **kwargs):
            raise AssertionError("the spectral strata ran the sphere count")

        monkeypatch.setattr(hypertoric, "_sphere_count", no_count)
        for p, g in [(Partition([2, 1, 1, 1]), 3), (Partition([1] * 6), 2), (Partition([3, 2]), 2)]:
            records = spectral_strata(p, g)
            assert len(records) == len(list(set_partitions(range(p.r))))
        with pytest.raises(AssertionError):
            enumerate_strata(BANANA)

    def test_vertex_guard(self, monkeypatch):
        monkeypatch.setattr(hypertoric, "set_partitions", None)
        path = MultiGraph(12, [(v, v + 1) for v in range(11)])
        with pytest.raises(ResourceLimitError):
            enumerate_strata(path)

    def test_cap_is_eleven_vertices(self, monkeypatch):
        # the cap lets r = MAX_STRATA_VERTICES through to the enumeration
        assert MAX_STRATA_VERTICES == 11

        def reached(items):
            raise LookupError(len(items))

        monkeypatch.setattr(hypertoric, "set_partitions", reached)
        with pytest.raises(LookupError, match="^11$"):
            spectral_strata(Partition([1] * 11), 2)
        with pytest.raises(LookupError, match="^11$"):
            enumerate_strata(MultiGraph(11, [(v, v + 1) for v in range(10)]))

    @pytest.mark.parametrize(
        "parts, genus, error, message",
        [
            ([1, 1], 1, ValueError, "genus must be at least 2, got 1"),
            (
                [1] * 12,
                2,
                ResourceLimitError,
                "stratum enumeration is capped at MAX_STRATA_VERTICES = 11 vertices (Bell growth); got 12",
            ),
        ],
    )
    def test_spectral_guards(self, monkeypatch, parts, genus, error, message):
        # refused before any vertex partition is visited
        monkeypatch.setattr(hypertoric, "set_partitions", None)
        with pytest.raises(error) as raised:
            spectral_strata(Partition(parts), genus)
        assert str(raised.value) == message

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            enumerate_strata(MultiGraph(2, []))

    def test_single_edge_point_codims(self):
        # codim_in_X = b1 + s and codim_in_Y = 2 * b1 of the contraction
        point = enumerate_strata(MultiGraph(2, [(0, 1)]))[-1]
        assert point.vp.blocks == ((0,), (1,))
        assert (point.codim_in_X, point.codim_in_Y) == (1, 0)

    def test_deepest_multiplicity_matches_factorial(self):
        # every contraction of a spectral quiver has a complete underlying
        # graph, and T(1, 0) of a graph on k vertices with complete underlying
        # graph counts its acyclic orientations with one fixed source: (k-1)!
        from math import factorial

        for n in range(2, 5):
            for p in partitions_of(n):
                for g in (2, 3):
                    for rec in enumerate_strata(spectral_dual_graph(p, g)):
                        assert rec.multiplicity == factorial(len(rec.vp.blocks) - 1), (p, g, rec.vp)


def sphere_count(graph):
    return _sphere_count(graph.vertex_count, graph.pair_multiplicities())


class TestSphereCount:
    """_sphere_count, the subset recursion, against T(1, 0) of the Tutte polynomial."""

    def test_equals_tutte_oracle_on_seeded_multigraphs(self):
        graphs = [MultiGraph(1, []), MultiGraph(1, [(0, 0)])]
        graphs += [MultiGraph(2, [(0, 1)] * k) for k in range(1, 6)]
        # trees: paths and stars on up to nine vertices
        graphs += [MultiGraph(r, [(v - 1, v) for v in range(1, r)]) for r in range(2, 10)]
        graphs += [MultiGraph(r, [(0, v) for v in range(1, r)]) for r in range(3, 10)]
        rng = random.Random(26)
        while len(graphs) < 1200:
            graph = random_connected_multigraph(rng, max_vertices=9, max_edges=20, allow_loops=len(graphs) % 4 == 0)
            edges = list(graph.edges)
            if edges:
                # one edge doubled, so that most graphs have a parallel class
                edges.append(rng.choice(edges))
            graphs.append(MultiGraph(graph.vertex_count, edges))
        assert sum(betti1(g) == 0 for g in graphs) >= 20
        assert {g.vertex_count for g in graphs} == set(range(1, 10))
        for graph in graphs:
            assert sphere_count(graph) == top_betti_reference(graph), graph.edges

    def test_known_values(self):
        for k in range(1, 8):
            assert sphere_count(MultiGraph(2, [(0, 1)] * k)) == 1
        assert sphere_count(MultiGraph(4, [(0, 1), (1, 2), (2, 3)])) == 1
        assert sphere_count(MultiGraph(1, [])) == 1
        # a loop is a factor y of T, so T(1, 0) = 0
        assert sphere_count(MultiGraph(1, [(0, 0)])) == 0
        assert sphere_count(MultiGraph(3, [(0, 1), (1, 2), (2, 0), (1, 1)])) == 0
        # the n-cycle: T = x + ... + x^(n-1) + y
        assert [sphere_count(MultiGraph(n, [(v, (v + 1) % n) for v in range(n)])) for n in (3, 5, 9)] == [2, 4, 8]

    def test_complete_underlying_graph_counts_factorial(self):
        from math import factorial

        for n in range(2, 7):
            for p in partitions_of(n):
                for genus in (2, 3):
                    assert sphere_count(spectral_dual_graph(p, genus)) == factorial(p.r - 1), (p, genus)


def assert_strictly_small(quiver):
    # the fiber dimension b1 of each contraction with at least two blocks
    # is below its Lawrence codimension b1 + s, i.e. b1 < s
    for rec in enumerate_strata(quiver):
        if len(rec.vp) >= 2:
            assert rec.b1_contracted < rec.s_contracted, (quiver, rec)
    assert certify_small_bell_walk(quiver) == (), quiver


class TestSmallness:
    def test_banana(self):
        assert_strictly_small(BANANA)

    def test_triangle(self):
        assert_strictly_small(TRIANGLE)

    def test_spectral_quivers(self):
        for n in range(2, 6):
            for p in partitions_of(n):
                for g in (2, 3):
                    assert_strictly_small(spectral_dual_graph(p, g))

    def test_random_looped_multigraphs(self):
        rng = random.Random(1019)
        for _ in range(40):
            graph = random_connected_multigraph(rng, max_vertices=6, max_edges=10, allow_loops=True)
            assert_strictly_small(MultiGraph(graph.vertex_count, graph.edges))

    def test_oracle_rejects_disconnected(self):
        with pytest.raises(ValueError):
            certify_small_bell_walk(MultiGraph(2, []))


class TestSmoothSlices:
    # a record with at least two blocks and b1 = 0 is a smooth slice: its
    # summand merges into the open stratum's

    def test_single_edge_smooth(self):
        edge = MultiGraph(2, [(0, 1)])
        records = enumerate_strata(edge)
        assert [(len(rec.vp), rec.b1_contracted, rec.codim_in_Y, rec.multiplicity) for rec in records] == [
            (1, 0, 0, 1),
            (2, 0, 0, 1),
        ]

    def test_spectral_quivers_have_none(self):
        for n in range(2, 6):
            for p in partitions_of(n):
                for g in (2, 3):
                    for rec in enumerate_strata(spectral_dual_graph(p, g)):
                        if len(rec.vp) >= 2:
                            assert rec.b1_contracted > 0, (p, g, rec.vp)


class TestLocalModelDims:
    def test_rank_two_point(self):
        dims = local_model_dims(Partition([2]), 2)
        assert dims.s == 0 and dims.b1 == 0
        assert dims.d_dim == 2
        assert dims.c_dim == 17
        assert dims.dim_M == 10

    def test_one_one(self):
        dims = local_model_dims(Partition([1, 1]), 2)
        assert dims.s == 2 and dims.b1 == 1
        assert dims.d_dim == 1
        assert dims.dim_Y == 2
        assert dims.dim_M == dims.dim_Y + 2 * dims.d_dim + 2 * dims.g + 2

    # (dim_X, dim_Y) = (b1 + s, 2 * b1) of the Lawrence and hypertoric varieties

    def test_banana_lawrence_dims(self):
        # the spectral graph of 1,1 at g = 2 is the banana
        assert spectral_dual_graph(Partition([1, 1]), 2).pair_multiplicities() == BANANA.pair_multiplicities()
        local = local_model_dims(Partition([1, 1]), 2)
        assert (local.dim_X, local.dim_Y) == (3, 2)

    def test_two_two_lawrence_dims(self):
        local = local_model_dims(Partition([2, 2]), 2)
        assert (local.dim_X, local.dim_Y) == (15, 14)

    def test_jbar_identity_everywhere(self):
        for n in range(2, 9):
            for g in range(2, 6):
                for p in partitions_of(n):
                    dims = local_model_dims(p, g)
                    assert dims.dim_Jbar - dims.dim_X == dims.c_dim
                    assert dims.dim_M == dims.dim_Y + 2 * dims.d_dim + 2 * g + 2

    def test_genus_guard(self):
        with pytest.raises(ValueError):
            local_model_dims(Partition([2]), 1)
