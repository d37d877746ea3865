import random
from itertools import combinations

import pytest

from ngostrings import homology
from ngostrings.errors import ResourceLimitError
from ngostrings.graphs import MultiGraph, spectral_dual_graph
from ngostrings.homology import (
    SimplicialComplex,
    matroid_complex,
    reduced_homology_ranks,
)
from ngostrings.matroid import CographicMatroid
from ngostrings.partitions import Partition, partitions_of

from conftest import (
    bench_workloads,
    boundary_rows_reference,
    faces_by_dim_reference,
    pruned_facets_reference,
    random_connected_multigraph,
    reduced_homology_ranks_reference,
    sparse_rank_reference,
    top_betti_reference,
)

BANANA2 = MultiGraph(2, [(0, 1), (0, 1)])
BANANA3 = MultiGraph(2, [(0, 1)] * 3)


class TestSimplicialComplex:
    def test_facet_pruning(self):
        c = SimplicialComplex([(0, 1), (0,), (1, 0)])
        assert c.facets == ((0, 1),)

    def test_facet_pruning_matches_reference(self):
        # facets of mixed sizes, many of them inside another, with repeats
        rng = random.Random(30)
        pruned = 0
        for _ in range(2000):
            facets = [rng.sample(range(8), rng.randint(0, 6)) for _ in range(rng.randint(0, 12))]
            facets += [rng.sample(f, rng.randint(0, len(f))) for f in facets[: rng.randint(0, len(facets))]]
            rng.shuffle(facets)
            got = SimplicialComplex(facets).facets
            assert got == pruned_facets_reference(facets), facets
            pruned += len(got) < len({frozenset(f) for f in facets})
        assert pruned >= 1000

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
        assert top_betti_reference(g) == 2

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
            assert ranks[-1] == top_betti_reference(g)


def random_complex(rng):
    """On at most nine vertices: the union of one to three simplex boundaries (spheres) and up to four random facets."""
    vertices = rng.randint(3, 9)
    facets = []
    for _ in range(rng.randint(1, 3)):
        sphere = rng.sample(range(vertices), rng.randint(3, min(vertices, 6)))
        facets += combinations(sphere, len(sphere) - 1)
    for _ in range(rng.randint(0, 4)):
        facets.append(rng.sample(range(vertices), rng.randint(1, min(vertices, 4))))
    return SimplicialComplex(facets)


class TestClearing:
    def test_faces_match_reference(self):
        rng = random.Random(28)
        for _ in range(300):
            c = random_complex(rng)
            assert c.faces_by_dim() == faces_by_dim_reference(c), c

    def test_ranks_match_uncleared_reference(self):
        rng = random.Random(29)
        spread = 0
        for _ in range(300):
            c = random_complex(rng)
            ranks = reduced_homology_ranks(c)
            assert ranks == reduced_homology_ranks_reference(c), c
            spread += sum(1 for v in ranks if v) > 1
        # homology in two or more degrees, where a wrongly cleared row shows
        assert spread >= 60


class TestCost:
    def test_sixteen_edge_quiver_eliminates_only_uncleared_rows(self, monkeypatch):
        # r = 5, s = 16, 60 620 faces: each map's elimination gets one row per
        # face less the pivots of the map above, 30 322 rows in all
        r, edges = bench_workloads().random_multigraph(random.Random("big/5"), 5, 16)
        complex_ = matroid_complex(CographicMatroid(MultiGraph(r, edges)))
        faces = complex_.faces_by_dim()
        fed = []
        eliminate = homology._eliminate
        monkeypatch.setattr(homology, "_eliminate", lambda rows: fed.append(len(rows)) or eliminate(rows))
        ranks = homology._boundary_ranks(faces)
        dim = max(faces)
        assert fed == [len(faces[k]) - ranks.get(k + 1, 0) for k in range(dim, -1, -1)]
        assert reduced_homology_ranks(complex_) == [0] * 12 + [24]


class TestBoundaryRanks:
    # the spectral matroid-homology inputs of the benchmark's oracles workload
    @pytest.mark.parametrize("parts, genus", [((2, 1), 3), ((1, 1, 1), 2), ((2, 1, 1), 2)])
    def test_every_cleared_map_matches_reference_rank(self, parts, genus):
        complex_ = matroid_complex(CographicMatroid(spectral_dual_graph(Partition(parts), genus)))
        faces = complex_.faces_by_dim()
        ranks = homology._boundary_ranks(faces)
        assert sorted(ranks) == list(range(max(faces) + 1))
        for k, rank in ranks.items():
            assert rank == sparse_rank_reference(boundary_rows_reference(faces[k - 1], faces[k])), k
