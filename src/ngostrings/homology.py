"""Brute-force rational simplicial homology of small complexes.

This is the independent oracle for sphere counts: the matroid complex of a
cographic matroid is a wedge of top-dimensional spheres, and the rank of the
top reduced homology group computed here must match the Tutte evaluation
T(1, 0) from the matroid module.

Boundary maps are exact integer matrices over a fixed lexicographic face
order, and their ranks are computed fraction-free by intlinalg._eliminate,
with clearing (Chen and Kerber, "Persistent homology computation with a
twist", EuroCG 2011).  The maps are taken from the top dimension down, each
transposed: one row per k-face, holding its k + 1 signed (k-1)-faces.  Once
the map from the (k+1)-faces is eliminated, its pivot columns P (k-faces)
and pivot rows Q ((k+1)-faces) make a nonsingular minor D[P, Q] of the
boundary D of the (k+1)-faces.  The boundary d of the k-faces has d D = 0,
so d[:, P] D[P, Q] = -d[:, rest] D[rest, Q]: the boundary of every face of
P is in the span of the boundaries of the other k-faces.  So the rows of P
are left out, and the rank of d does not change.  Degree -1 (the empty
face) is part of every chain complex, so the complex {emptyset} reports
reduced homology rank 1 in degree -1.
"""

from itertools import islice

from .errors import ResourceLimitError
from .intlinalg import _eliminate

# matroid_complex refuses a larger ground set before any work; a matroid
# complex then has at most 2^16 faces.  The last inputs accepted, with 16
# edges, take 0.65 to 0.95 s and 37 MiB by `matroid-homology` in a fresh
# process (2-core Xeon, Python 3.11): one vertex with 16 loops (the full
# 15-simplex), a bundle of 16 edges, and 2,2,1 at genus 2, 2,2 and 4,1 at
# genus 3.  K4,4, with 4096 bases, takes 1.2 to 1.7 s and 43 MiB, in runs
# where those took 0.7 to 1.15 s.
MAX_GROUND_SET = 16
# reduced_homology_ranks refuses a complex of more faces, the empty face
# included, before building a boundary map.  No matroid complex reaches it;
# the last complex accepted, the 19-simplex (2^20 faces), takes 20 s and
# 399 MiB in process.
MAX_FACES = 1 << 20


class SimplicialComplex:
    """Finite simplicial complex given by its facets (maximal faces).

    Faces are sorted tuples of integer vertex labels; the face set is the
    downward closure of the facets.  Facets that are contained in another
    facet are pruned on construction.
    """

    __slots__ = ("facets",)

    def __init__(self, facets):
        norm = sorted(
            {tuple(sorted(set(int(v) for v in f))) for f in facets},
            key=lambda f: (len(f), f),
        )
        # only a longer facet can contain f, and the longer ones are a tail of norm
        sets = [set(f) for f in norm]
        pruned = []
        longer = 0
        for f, fset in zip(norm, sets):
            while longer < len(norm) and len(norm[longer]) <= len(f):
                longer += 1
            if not any(map(fset.issubset, islice(sets, longer, None))):
                pruned.append(f)
        self.facets = tuple(sorted(pruned))

    @property
    def dim(self):
        if not self.facets:
            return -2
        return max(len(f) for f in self.facets) - 1

    def faces_by_dim(self):
        """Map dimension -> lexicographically sorted faces; includes () at dimension -1.

        From the top dimension down: the k-faces are the facets of k + 1
        vertices and the boundary faces of the (k+1)-faces, so each face is
        taken apart once rather than each facet into all its subsets.
        """
        if not self.facets:
            return {}
        layers = []
        layer = set()
        for k in range(self.dim, -1, -1):
            layer = {f for f in self.facets if len(f) == k + 1}.union(
                face[:m] + face[m + 1 :] for face in layer for m in range(k + 2)
            )
            layers.append(sorted(layer))
        return {-1: [()], **dict(enumerate(reversed(layers)))}

    def face_count(self):
        return sum(len(faces) for faces in self.faces_by_dim().values())

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __repr__(self):
        return "SimplicialComplex(%r)" % (list(self.facets),)


def matroid_complex(matroid):
    """Complex of independent sets; the facets are the bases of the matroid.

    Raises ResourceLimitError before listing any basis when the ground set
    has more than MAX_GROUND_SET elements.
    """
    if matroid.size > MAX_GROUND_SET:
        raise ResourceLimitError(
            "ground set has %d elements; the homology oracle is capped at %d" % (matroid.size, MAX_GROUND_SET)
        )
    return SimplicialComplex(matroid.bases())


def _boundary_ranks(faces):
    """{k: rank of the boundary map from the k-faces to the (k-1)-faces} for k = 0..dim.

    ``faces`` is faces_by_dim().  The maps go from the top dimension down,
    transposed, and the rows of the k-faces that were pivot columns of the
    map from the (k+1)-faces are cleared: see the module docstring.
    """
    ranks = {}
    cleared = set()
    for k in range(max(faces), -1, -1):
        index = {face: j for j, face in enumerate(faces[k - 1])}
        rows = []
        for i, face in enumerate(faces[k]):
            if i not in cleared:
                rows.append({index[face[:m] + face[m + 1 :]]: 1 - 2 * (m & 1) for m in range(k + 1)})
        pivots, _ = _eliminate(rows)
        ranks[k] = len(pivots)
        cleared = set(pivots)
    return ranks


def reduced_homology_ranks(complex_):
    """Ranks of reduced rational homology in degrees -1..dim, as a list.

    Entry k of the list is the rank in degree k-1: the number of (k-1)-faces
    less the ranks of the boundary maps from and to them.  Exact: integer
    boundary matrices in a fixed lexicographic face order, their ranks by
    fraction-free elimination with clearing (_boundary_ranks), which leaves
    out the rows that the boundary relation puts in the span of the others.
    """
    faces = complex_.faces_by_dim()
    if not faces:
        return []
    total = sum(len(v) for v in faces.values())
    if total > MAX_FACES:
        raise ResourceLimitError(
            "complex has %d faces; the homology oracle is capped at %d" % (total, MAX_FACES)
        )
    ranks = _boundary_ranks(faces)
    out = []
    for k in range(-1, max(faces) + 1):
        out.append(len(faces[k]) - ranks.get(k, 0) - ranks.get(k + 1, 0))
    return out
