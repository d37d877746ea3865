import random

import pytest

from ngostrings import homology
from ngostrings.errors import ResourceLimitError
from ngostrings.graphs import MultiGraph, spectral_dual_graph
from ngostrings.homology import (
    SimplicialComplex,
    matroid_complex,
    reduced_homology_ranks,
)
from ngostrings.intlinalg import sparse_rank
from ngostrings.matroid import CographicMatroid, top_betti
from ngostrings.partitions import Partition, partitions_of

from conftest import random_connected_multigraph, sparse_rank_reference

BANANA2 = MultiGraph(2, [(0, 1), (0, 1)])
BANANA3 = MultiGraph(2, [(0, 1)] * 3)


class TestSimplicialComplex:
    def test_facet_pruning(self):
        c = SimplicialComplex([(0, 1), (0,), (1, 0)])
        assert c.facets == ((0, 1),)

    def test_faces_by_dim(self):
        c = SimplicialComplex([(0, 1, 2)])
        faces = c.faces_by_dim()
        assert faces[-1] == [()]
        assert faces[0] == [(0,), (1,), (2,)]
        assert faces[2] == [(0, 1, 2)]
        assert c.dim == 2
        assert c.face_count() == 8

    def test_empty_face_complex(self):
        c = SimplicialComplex([()])
        assert c.dim == -1
        assert c.faces_by_dim() == {-1: [()]}


class TestMatroidComplex:
    def test_banana2_two_points(self):
        c = matroid_complex(CographicMatroid(BANANA2))
        assert c.facets == ((0,), (1,))

    def test_banana3_triangle_boundary(self):
        c = matroid_complex(CographicMatroid(BANANA3))
        assert c.facets == ((0, 1), (0, 2), (1, 2))

    def test_rank_zero_empty_complex(self):
        c = matroid_complex(CographicMatroid(MultiGraph(2, [(0, 1)])))
        assert c.facets == ((),)

    def test_ground_set_guard(self):
        g = spectral_dual_graph(Partition([1, 1, 1, 1, 1]), 2)  # 20 edges
        with pytest.raises(ResourceLimitError):
            matroid_complex(CographicMatroid(g))


class TestReducedHomology:
    def test_two_points(self):
        c = matroid_complex(CographicMatroid(BANANA2))
        assert reduced_homology_ranks(c) == [0, 1]

    def test_circle(self):
        c = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
        assert reduced_homology_ranks(c) == [0, 0, 1]

    def test_empty_face_complex(self):
        assert reduced_homology_ranks(SimplicialComplex([()])) == [1]

    def test_two_sphere(self):
        c = SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        assert reduced_homology_ranks(c) == [0, 0, 0, 1]

    def test_doubled_triangle_top_rank(self):
        g = spectral_dual_graph(Partition([1, 1, 1]), 2)
        ranks = reduced_homology_ranks(matroid_complex(CographicMatroid(g)))
        # wedge of spheres in the top degree b1 - 1 = 3
        assert ranks == [0, 0, 0, 0, 2]
        assert top_betti(g) == 2

    def test_euler_characteristic_identity(self):
        complexes = [
            matroid_complex(CographicMatroid(BANANA2)),
            matroid_complex(CographicMatroid(BANANA3)),
            SimplicialComplex([(0, 1, 2), (2, 3)]),
            SimplicialComplex([()]),
        ]
        for c in complexes:
            ranks = reduced_homology_ranks(c)
            homological = sum((-1) ** (k - 1) * v for k, v in enumerate(ranks))
            # the reduced Euler characteristic: alternating face count, the empty face included
            assert homological == sum((-1) ** k * len(v) for k, v in c.faces_by_dim().items())

    def test_wedge_shape_for_matroid_complexes(self):
        rng = random.Random(41)
        graphs = []
        done = 0
        while done < 50:
            g = random_connected_multigraph(rng, max_vertices=5, max_edges=8, allow_loops=True)
            graphs.append(g)
            done += 1
        for n in range(2, 5):
            for p in partitions_of(n):
                g = spectral_dual_graph(p, 2)
                if g.edge_count <= 12:
                    graphs.append(g)
        for g in graphs:
            m = CographicMatroid(g)
            ranks = reduced_homology_ranks(matroid_complex(m))
            assert all(v == 0 for v in ranks[:-1])
            assert ranks[-1] == top_betti(g)


class TestBoundaryRanks:
    # the spectral matroid-homology inputs of the benchmark's oracles workload
    @pytest.mark.parametrize("parts, genus", [((2, 1), 3), ((1, 1, 1), 2), ((2, 1, 1), 2)])
    def test_every_boundary_map_matches_reference_rank(self, monkeypatch, parts, genus):
        checked = []

        def both(rows):
            rank = sparse_rank(rows)
            assert rank == sparse_rank_reference(rows)
            checked.append(rank)
            return rank

        monkeypatch.setattr(homology, "sparse_rank", both)
        complex_ = matroid_complex(CographicMatroid(spectral_dual_graph(Partition(parts), genus)))
        ranks = reduced_homology_ranks(complex_)
        assert len(checked) == len(ranks) - 1
